package analysis

// HotpathRegistry is the committed list of //rtdvs:hotpath functions and
// the 0-alloc benchmark (or AllocsPerRun test) that pins each one's
// steady-state allocation behavior. Keys are FuncKey strings:
// "pkgpath.Func" for plain functions, "pkgpath.Type.Method" for methods.
//
// The registry exists so the annotation set cannot drift: the hotalloc
// analyzer reports an annotated function missing from this map and a map
// entry whose function lost its annotation, and
// TestHotpathRegistryBenchmarks (hotpath_test.go) fails when a listed
// benchmark no longer exists in the repository's test files. Adding a
// hot-path function therefore takes all three pieces — the annotation,
// the registry row, and a pinning benchmark — and removing any one of
// them breaks vet or the tests until the other two follow.
var HotpathRegistry = map[string]string{
	// Simulator event loop and its per-event helpers: one laEDF run on a
	// reused Runner must stay at 0 allocs/op with metrics enabled.
	"rtdvs/internal/sim.simulator.run":             "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.processReleases": "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.processAborts":   "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.switchTo":        "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.record":          "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.pollCtx":         "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.timerAdd":        "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.readyAdd":        "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.readyKey":        "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.nextReleaseTime": "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.nextAbortTime":   "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.sortIndexes":               "BenchmarkSimulatorThroughput",

	// Indexed-heap ready queue: a warmed push/drain cycle allocates
	// nothing (also pinned by TestReadyQueueReuse's AllocsPerRun check).
	"rtdvs/internal/sched.ReadyQueue.Push":     "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.Pop":      "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.Peek":     "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.PeekKey":  "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.Remove":   "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.Update":   "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.Contains": "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.removeAt": "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.siftUp":   "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.siftDown": "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.swap":     "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.less":     "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.growPos":  "BenchmarkReadyQueueHeap128",

	// Incremental policy callbacks, invoked once per release/completion.
	"rtdvs/internal/core.base.setLowestAtLeast": "BenchmarkPolicyOverheadCCEDF64",
	"rtdvs/internal/core.ccEDF.adjust":          "BenchmarkPolicyOverheadCCEDF64",
	"rtdvs/internal/core.ccEDF.OnRelease":       "BenchmarkPolicyOverheadCCEDF64",
	"rtdvs/internal/core.ccEDF.OnCompletion":    "BenchmarkPolicyOverheadCCEDF64",
	"rtdvs/internal/core.laEDF.defer_":          "BenchmarkPolicyOverheadLAEDF64",
	"rtdvs/internal/core.laEDF.laterDeadline":   "BenchmarkPolicyOverheadLAEDF64",
	"rtdvs/internal/core.laEDF.OnRelease":       "BenchmarkPolicyOverheadLAEDF64",
	"rtdvs/internal/core.laEDF.OnCompletion":    "BenchmarkPolicyOverheadLAEDF64",
	"rtdvs/internal/core.laEDF.OnExecute":       "BenchmarkPolicyOverheadLAEDF64",
	"rtdvs/internal/core.ccRM.nextDeadline":     "BenchmarkPolicyOverheadCCRM64",
	"rtdvs/internal/core.ccRM.allocateCycles":   "BenchmarkPolicyOverheadCCRM64",
	"rtdvs/internal/core.ccRM.selectFrequency":  "BenchmarkPolicyOverheadCCRM64",
	"rtdvs/internal/core.ccRM.OnRelease":        "BenchmarkPolicyOverheadCCRM64",
	"rtdvs/internal/core.ccRM.OnCompletion":     "BenchmarkPolicyOverheadCCRM64",
	"rtdvs/internal/core.ccRM.OnExecute":        "BenchmarkPolicyOverheadCCRM64",
	"rtdvs/internal/core.fbEDF.control":         "BenchmarkPolicyOverheadFBEDF64",
	"rtdvs/internal/core.fbEDF.OnRelease":       "BenchmarkPolicyOverheadFBEDF64",
	"rtdvs/internal/core.fbEDF.OnCompletion":    "BenchmarkPolicyOverheadFBEDF64",
	"rtdvs/internal/core.stSelect.adjust":       "BenchmarkPolicyOverheadSTSelect64",
	"rtdvs/internal/core.stSelect.OnRelease":    "BenchmarkPolicyOverheadSTSelect64",
	"rtdvs/internal/core.stSelect.OnCompletion": "BenchmarkPolicyOverheadSTSelect64",
	"rtdvs/internal/core.stSelect.OnExecute":    "BenchmarkPolicyOverheadSTSelect64",

	// Gang multiprocessor policy callbacks, invoked once per system-wide
	// release/completion by the global-EDF engine.
	"rtdvs/internal/core.gangRequired":         "BenchmarkPolicyOverheadGangCCEDF64",
	"rtdvs/internal/core.gangCC.adjust":        "BenchmarkPolicyOverheadGangCCEDF64",
	"rtdvs/internal/core.gangCC.OnRelease":     "BenchmarkPolicyOverheadGangCCEDF64",
	"rtdvs/internal/core.gangCC.OnCompletion":  "BenchmarkPolicyOverheadGangCCEDF64",
	"rtdvs/internal/core.gangLA.laterDeadline": "BenchmarkPolicyOverheadGangLAEDF64",
	"rtdvs/internal/core.gangLA.defer_":        "BenchmarkPolicyOverheadGangLAEDF64",
	"rtdvs/internal/core.gangLA.OnRelease":     "BenchmarkPolicyOverheadGangLAEDF64",
	"rtdvs/internal/core.gangLA.OnCompletion":  "BenchmarkPolicyOverheadGangLAEDF64",
	"rtdvs/internal/core.gangLA.OnExecute":     "BenchmarkPolicyOverheadGangLAEDF64",

	// Global-EDF gang event loop: a reused MultiRunner pass on a 4-core
	// spec must stay at 0 allocs/op.
	"rtdvs/internal/sim.multiSim.run":             "BenchmarkMultiCoreThroughput",
	"rtdvs/internal/sim.multiSim.processReleases": "BenchmarkMultiCoreThroughput",
	"rtdvs/internal/sim.multiSim.switchTo":        "BenchmarkMultiCoreThroughput",
	"rtdvs/internal/sim.multiSim.assign":          "BenchmarkMultiCoreThroughput",
	"rtdvs/internal/sim.multiSim.pollCtx":         "BenchmarkMultiCoreThroughput",
	"rtdvs/internal/sim.multiSim.timerAdd":        "BenchmarkMultiCoreThroughput",
	"rtdvs/internal/sim.multiSim.readyAdd":        "BenchmarkMultiCoreThroughput",
	"rtdvs/internal/sim.multiSim.readyKey":        "BenchmarkMultiCoreThroughput",

	// Closure-free operating-point lookup used by every dynamic policy.
	"rtdvs/internal/machine.PointSelector.AtLeast": "TestSelectorMatchesLowestAtLeast",
	"rtdvs/internal/machine.PointSelector.Index":   "TestSelectorMatchesLowestAtLeast",
	"rtdvs/internal/machine.PointSelector.Len":     "TestSelectorMatchesLowestAtLeast",

	// Batch engine: a reused BatchRunner running 64 lanes back to back
	// must stay at 0 allocs/op (also pinned by sim's
	// TestBatchRunnerSteadyStateAllocs AllocsPerRun check).
	"rtdvs/internal/sim.lane.run":                  "BenchmarkBatchThroughput",
	"rtdvs/internal/sim.lane.step":                 "BenchmarkBatchThroughput",
	"rtdvs/internal/sim.lane.fireReleases":         "BenchmarkBatchThroughput",
	"rtdvs/internal/sim.lane.processReleasesHeap":  "BenchmarkBatchThroughput",
	"rtdvs/internal/sim.lane.processReleasesTable": "BenchmarkBatchThroughput",
	"rtdvs/internal/sim.lane.switchTo":             "BenchmarkBatchThroughput",
	"rtdvs/internal/sim.lane.record":               "BenchmarkBatchThroughput",
	"rtdvs/internal/sim.lane.timerAdd":             "BenchmarkBatchThroughput",
	"rtdvs/internal/sim.lane.readyAdd":             "BenchmarkBatchThroughput",
	"rtdvs/internal/sim.lane.readyPeek":            "BenchmarkBatchThroughput",
	"rtdvs/internal/sim.lane.readyRemove":          "BenchmarkBatchThroughput",
	"rtdvs/internal/sim.lane.readyKey":             "BenchmarkBatchThroughput",
	"rtdvs/internal/sim.lane.selIndex":             "BenchmarkBatchThroughput",
	"rtdvs/internal/sim.lane.nextReleaseTime":      "BenchmarkBatchThroughput",

	// Metrics instrument updates: one atomic op each, pinned at exactly
	// zero allocations so instruments may sit on the simulator hot path.
	"rtdvs/internal/obs.atomicFloat.add":   "TestInstrumentOpsAllocate",
	"rtdvs/internal/obs.atomicFloat.store": "TestInstrumentOpsAllocate",
	"rtdvs/internal/obs.atomicFloat.load":  "TestInstrumentOpsAllocate",
	"rtdvs/internal/obs.Counter.Inc":       "TestInstrumentOpsAllocate",
	"rtdvs/internal/obs.Counter.Add":       "TestInstrumentOpsAllocate",
	"rtdvs/internal/obs.Gauge.Set":         "TestInstrumentOpsAllocate",
	"rtdvs/internal/obs.Gauge.Add":         "TestInstrumentOpsAllocate",
	"rtdvs/internal/obs.Histogram.Observe": "TestInstrumentOpsAllocate",
}
