package cpu

import (
	"fmt"
	"slices"
	"testing"

	"bigtiny/internal/cache"
	"bigtiny/internal/dram"
	"bigtiny/internal/fault"
	"bigtiny/internal/mem"
	"bigtiny/internal/noc"
	"bigtiny/internal/sim"
	"bigtiny/internal/uli"
)

// spinRig is a two-core system with ULI hardware: core 0 (cfg) spins,
// core 1 (tiny) is the neighbour.
func spinRig(cfg Config, faults *fault.Injector) (*sim.Kernel, [2]*Core, *cache.System) {
	k := sim.NewKernel()
	mesh := noc.NewMesh(2, 2)
	nodes := []noc.NodeID{mesh.Node(0, 0), mesh.Node(0, 1)}
	sys := cache.NewSystem(cache.Config{
		NumCores:      2,
		CoreNode:      nodes,
		BankNode:      []noc.NodeID{mesh.Node(1, 0)},
		L2SetsPerBank: 64,
		L2Ways:        8,
		MCs:           []*dram.Controller{dram.NewController(dram.DefaultConfig())},
	}, mesh, mem.New())
	fab := uli.NewFabric(k, 2, 2, 2, func(core int) noc.NodeID { return nodes[core] })
	var cores [2]*Core
	for i, c := range []Config{cfg, TinyConfig()} {
		cores[i] = New(i, c, cache.NewL1(sys, i, cache.MESI, c.L1IBytes, 2), fab.Unit(i))
		cores[i].Faults, cores[i].FaultLane = faults, i
	}
	return k, cores, sys
}

// spinOutcome is everything a spin may legitimately touch.
type spinOutcome struct {
	cycles, neighbour            [NumClasses]uint64
	insts                        uint64
	end, handlerAt, stolenAt     sim.Time
	iTags                        []uint64
	curPC                        uint64
	fracIssue                    int
	scheduled, fired, fastWaits  uint64
	stalls                       uint64
	resumesInSpin, totalResumes  uint64
	neighbourEnd, neighbourInsts uint64
}

// spinRun spins n instructions in chunks on core 0 — with Spin, or with
// the Compute loop it stands for — inside a 2 KB function (fetch stalls
// on the way) while core 1 computes. With steal set, core 1 sends core
// 0 a ULI request part-way through, whose handler computes too.
func spinRun(t *testing.T, cfg Config, faults *fault.Injector, n, chunk int, useSpin, steal bool) spinOutcome {
	t.Helper()
	k, cores, _ := spinRig(cfg, faults)
	var out spinOutcome
	var atNeighbourStart uint64
	k.NewProc("spinner", 0, func(p *sim.Proc) {
		c := cores[0]
		c.Bind(p)
		c.ULI.SetHandler(func(thief int) uint64 {
			out.handlerAt = c.Now()
			c.Compute(9)
			return 42
		})
		c.ULIEnable()
		c.SetFunc(1, 2048)
		if useSpin {
			c.Spin(n, chunk)
		} else {
			for left := n; left > 0; left -= chunk {
				c.Compute(min(left, chunk))
			}
			c.Drain()
		}
		out.resumesInSpin = k.Resumes() - atNeighbourStart
		c.Compute(5)
		out.end = c.Now()
	})
	// The neighbour starts once the spin is under way, so the resumes
	// from here to the spin's end are the spin's own.
	k.NewProc("neighbour", 10, func(p *sim.Proc) {
		c := cores[1]
		c.Bind(p)
		atNeighbourStart = k.Resumes()
		for i := 0; i < n/4; i++ {
			if steal && i == n/16 {
				if v, ok := c.ULISendReq(0); !ok || v != 42 {
					t.Errorf("steal from the spinner = %d, %v", v, ok)
				}
				out.stolenAt = c.Now()
			}
			c.Compute(7)
		}
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	c := cores[0]
	out.cycles, out.insts = c.Cycles, c.Insts
	out.iTags, out.curPC, out.fracIssue = slices.Clone(c.iTags), c.curPC, c.fracIssue
	out.neighbour, out.neighbourEnd, out.neighbourInsts = cores[1].Cycles, sumCycles(cores[1]), cores[1].Insts
	out.scheduled, out.fired, out.fastWaits = k.Scheduled(), k.Fired(), k.FastWaits()
	out.stalls, out.totalResumes = faults.Total(), k.Resumes()
	return out
}

// TestSpinMatchesComputeLoop: Spin is the chunked Compute loop to the
// cycle and to the counter — on a tiny and on a big core (whose 1- and
// 2-instruction chunks issue in zero cycles), on a straggler, and with
// a ULI request landing mid-spin, whose handler must run at the cycle
// it runs at under the loop. Only the coroutine resumes differ.
func TestSpinMatchesComputeLoop(t *testing.T) {
	straggler, err := fault.Lookup("tiny-straggler")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{TinyConfig(), BigConfig()} {
		for _, sc := range []*fault.Scenario{nil, &straggler} {
			for _, chunk := range []int{1, 2, 50, 128} {
				for _, steal := range []bool{false, true} {
					name := fmt.Sprintf("big=%v/straggler=%v/chunk=%d/steal=%v", cfg.Big, sc != nil, chunk, steal)
					t.Run(name, func(t *testing.T) {
						var run [2]spinOutcome
						for i, useSpin := range []bool{false, true} {
							var faults *fault.Injector
							if sc != nil {
								faults = fault.NewInjector(*sc, 1)
							}
							run[i] = spinRun(t, cfg, faults, 1200, chunk, useSpin, steal)
						}
						loop, spin := run[0], run[1]
						if steal && (spin.handlerAt == 0 || spin.handlerAt >= spin.end) {
							t.Fatalf("handler ran at %d, spin ended at %d: the request did not land mid-spin", spin.handlerAt, spin.end)
						}
						if sc != nil && !cfg.Big && spin.stalls == 0 {
							t.Fatal("straggler scenario injected nothing")
						}
						if spin.totalResumes > loop.totalResumes {
							t.Errorf("Spin resumed %d times, the loop %d", spin.totalResumes, loop.totalResumes)
						}
						loop.resumesInSpin, loop.totalResumes = spin.resumesInSpin, spin.totalResumes
						if fmt.Sprintf("%+v", spin) != fmt.Sprintf("%+v", loop) {
							t.Fatalf("Spin and the Compute loop diverge:\nspin %+v\nloop %+v", spin, loop)
						}
					})
				}
			}
		}
	}
}

// TestSpinResumesOnce: beside a neighbour that is busy the whole time,
// an undisturbed spin costs one switch — back to the spinner at its end
// — and the queued Compute loop one per queue-full of chunks (and the
// neighbour, whose queue drains too, as many), where blocking issue
// would cost one per chunk the neighbour interleaves with.
func TestSpinResumesOnce(t *testing.T) {
	spin := spinRun(t, TinyConfig(), nil, 128*40, 128, true, false)
	loop := spinRun(t, TinyConfig(), nil, 128*40, 128, false, false)
	if spin.resumesInSpin != 1 {
		t.Errorf("Spin took %d resumes from the neighbour's start to its own end, want 1", spin.resumesInSpin)
	}
	if want := 2 * uint64(40+queueCap-1) / queueCap; loop.resumesInSpin > want {
		t.Errorf("the queued Compute loop took %d resumes, want at most %d", loop.resumesInSpin, want)
	}
}

// TestIssueFastWalkMatchesDivisions: the mask-and-subtract I-cache walk
// lands on the same sets, tags and PC as the division form for every
// footprint the guard lets through, and the guard catches a footprint
// shrunk under a live PC.
func TestIssueFastWalkMatchesDivisions(t *testing.T) {
	for _, cfg := range []Config{TinyConfig(), BigConfig()} {
		k, core, _ := rig(t, cfg, cache.MESI)
		tags := slices.Clone(core.iTags)
		var pc, stall uint64
		ref := func(fid int, size uint64, n int) {
			base := uint64(fid) * (1<<20 + 37*iBlockBytes)
			for i := 0; i < n; i += iBlockBytes / 4 {
				blk := (base + pc) / iBlockBytes
				if idx := int(blk) % len(tags); tags[idx] != blk {
					tags[idx] = blk
					stall += iMissPenalty
				}
				pc = (pc + iBlockBytes) % size
			}
		}
		run(t, k, core, func() {
			fid := 0
			for _, size := range []int{1024, 64, 100, 2048, 640, 70000, 4096, 192, 1 << 20, 65} {
				for _, n := range []int{1, 15, 16, 17, 128, 5000} {
					if n == 128 {
						fid++ // a new function resets the PC; otherwise it stays live
						pc = 0
					}
					core.SetFunc(fid, size)
					core.Compute(n)
					core.Drain()
					ref(fid, uint64(max(size, iBlockBytes)), n)
					if core.curPC != pc || core.Cycles[ClassInstFetch] != stall || !slices.Equal(core.iTags, tags) {
						t.Fatalf("big=%v size=%d n=%d: pc %d stall %d, reference pc %d stall %d (tags equal: %v)",
							cfg.Big, size, n, core.curPC, core.Cycles[ClassInstFetch], pc, stall, slices.Equal(core.iTags, tags))
					}
				}
			}
		})
	}
}
