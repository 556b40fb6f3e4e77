package buildsys

import (
	"fmt"
	"sort"

	"propeller/internal/par"
)

// Fleet environment constants. Only ratios and ceilings matter for the
// reproduced figures; the values mirror the paper's build setup.
const (
	// WorkstationSlots is the 72-core developer machine of §5 used for
	// the open-source and SPEC rows.
	WorkstationSlots = 72

	// DistributedSlots is the per-build fleet allocation the modeled
	// distributed builds run under.
	DistributedSlots = 64

	// DistributedMemLimit is the hard per-action RAM ceiling on the
	// shared fleet (~12GB, §2.1). A monolithic BOLT rewrite of a WSC
	// binary does not fit under it; every sharded Propeller action does.
	DistributedMemLimit = 12 << 30

	// SuperrootMemLimit is the raised ceiling of the high-memory worker
	// pool the largest application (Superroot) builds on; its final link
	// alone outgrows the standard 12GB class.
	SuperrootMemLimit = 64 << 30

	// DistributedPoolMem is the per-build aggregate RSS budget of the
	// fleet allocation: 64 slots on standard 4GB-class workers. Actions
	// are admitted individually up to DistributedMemLimit, but a
	// 12GB-class relink action oversubscribes its slot's share, so the
	// pool sustains only ~21 of them concurrently — far fewer than the
	// slot count suggests, which is the fleet-pressure story behind
	// Table 5.
	DistributedPoolMem = 256 << 30
)

// Action is one schedulable unit of build work: a backend codegen shard,
// a link, a profile conversion. Cost is modeled single-core seconds;
// MemBytes is the modeled peak RSS the admission controller checks
// against the executor's ceiling; Run does the real work.
type Action struct {
	Name     string
	Cost     float64
	MemBytes int64
	Run      func() error
}

// Executor runs actions on an environment with Slots parallel workers
// and, when MemLimit > 0, a hard per-action memory ceiling. The zero
// MemLimit means no ceiling (a dedicated machine, not the shared fleet).
// PoolMem > 0 additionally bounds the *sum* of concurrently running
// actions' modeled RSS: the time model delays an action's start until
// the pool can hold it (see schedule), surfacing the stall time and peak
// concurrent memory in ExecStats.
type Executor struct {
	Slots    int
	MemLimit int64
	PoolMem  int64
}

// Workstation returns the single-machine environment: 72 cores, no
// fleet admission ceiling, no pool budget.
func Workstation() *Executor {
	return &Executor{Slots: WorkstationSlots}
}

// Distributed returns the standard fleet allocation: 64 slots, 12GB
// per-action ceiling, 256GB pool budget.
func Distributed() *Executor {
	return &Executor{Slots: DistributedSlots, MemLimit: DistributedMemLimit, PoolMem: DistributedPoolMem}
}

func (e *Executor) slots() int {
	if e.Slots < 1 {
		return 1
	}
	return e.Slots
}

// ExecStats summarizes one Execute batch under the deterministic time
// model.
type ExecStats struct {
	Actions       int     // actions run
	TotalCost     float64 // summed single-core seconds
	Makespan      float64 // modeled wall time over Slots workers
	PeakActionMem int64   // largest single action's modeled memory
	Slots         int     // parallelism the makespan was modeled at

	// PeakConcurrentMem is the modeled maximum of the running actions'
	// summed RSS — the batch's actual footprint on the pool (bounded by
	// PoolMem when one is set).
	PeakConcurrentMem int64

	// StallSeconds is the modeled slot-time spent claimed-but-waiting for
	// pool memory to free up (zero without a PoolMem budget).
	StallSeconds float64
}

// Execute admits, schedules, and runs a batch of actions.
//
// Admission control runs first: any action whose MemBytes exceeds the
// executor's per-action ceiling — or the whole pool's memory budget, so
// no schedule could ever start it — fails the whole batch before
// anything runs. The build system has no worker class to place it on,
// exactly the constraint that rules out monolithic post-link rewrites
// (§2.1).
//
// Admitted actions' Run closures then execute through par.Do on at most
// Slots goroutines. All actions run even if some fail; the returned
// error is the failure of the earliest action in submission order, so
// error reporting is deterministic regardless of goroutine interleaving.
//
// The returned stats come from the time model, not the wall clock:
// Makespan is deterministic list scheduling of the modeled Cost seconds
// over Slots slots under the PoolMem budget (see schedule),
// byte-identical across runs.
func (e *Executor) Execute(actions []*Action) (*ExecStats, error) {
	stats := &ExecStats{Actions: len(actions), Slots: e.slots()}
	for _, a := range actions {
		if e.MemLimit > 0 && a.MemBytes > e.MemLimit {
			return nil, fmt.Errorf(
				"buildsys: action %q needs %.1fGB but the per-action ceiling is %.1fGB: no worker class fits it; shard the work or use a dedicated machine",
				a.Name, gb(a.MemBytes), gb(e.MemLimit))
		}
		if e.PoolMem > 0 && a.MemBytes > e.PoolMem {
			return nil, fmt.Errorf(
				"buildsys: action %q needs %.1fGB but the whole pool's budget is %.1fGB: no schedule can ever start it",
				a.Name, gb(a.MemBytes), gb(e.PoolMem))
		}
		stats.TotalCost += a.Cost
		if a.MemBytes > stats.PeakActionMem {
			stats.PeakActionMem = a.MemBytes
		}
	}
	sched := schedule(actions, e.slots(), e.PoolMem)
	stats.Makespan = sched.makespan
	stats.PeakConcurrentMem = sched.peakMem
	stats.StallSeconds = sched.stall

	err := par.Do(len(actions), e.slots(), func(i int) error {
		a := actions[i]
		if a.Run == nil {
			return nil
		}
		if err := a.Run(); err != nil {
			return fmt.Errorf("buildsys: action %q: %w", a.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// ExecuteCriticalPath runs the batch like Execute, but feeds the list
// scheduler in descending modeled-cost order — longest-processing-time
// first, the classic critical-path heuristic for a dependency-free
// batch. FIFO order is right for a cold build's uniform codegen wave,
// but a warm relink's batch is bimodal: a handful of expensive rebuilt
// hot modules amid a crowd of near-free cache fetches. Submitting the
// expensive work first starts the critical path at t=0 instead of
// queueing it behind the crowd, so the warm Phase-4 makespan approaches
// the cost of the changed modules alone. The reorder is deterministic
// (stable sort; ties keep submission order) and error reporting follows
// the reordered batch.
func (e *Executor) ExecuteCriticalPath(actions []*Action) (*ExecStats, error) {
	sorted := make([]*Action, len(actions))
	copy(sorted, actions)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Cost > sorted[j].Cost })
	return e.Execute(sorted)
}

func gb(bytes int64) float64 { return float64(bytes) / (1 << 30) }
