package wsrt

import (
	"bigtiny/internal/cache"
	"bigtiny/internal/cpu"
	"bigtiny/internal/mem"
	"bigtiny/internal/prog"
	"bigtiny/internal/sim"
	"bigtiny/internal/trace"
)

// Run executes root as the program's main task on thread 0 (a big core
// in big.TINY configurations), with every other core running the
// worker scheduling loop, and drives the simulation to completion.
// When root returns, the main thread raises the done flag and all
// workers exit (paper §III-B: "the main thread terminates all other
// threads").
func (rt *RT) Run(root Body) error {
	n := rt.nthreads
	if sc := rt.M.Faults.Scenario(); sc.Lossy() {
		rt.lossy = true
	}
	for core := 0; core < n; core++ {
		core := core
		rt.M.Spawn(core, func(cc *cpu.Core) {
			c := &Ctx{
				rt: rt, env: prog.NewSimEnv(cc, rt.M.Mem), core: cc, tid: core,
				rng: sim.NewRand(uint64(cc.ID)*2654435761 + 12345),
			}
			if rt.Variant == DTS {
				unit := rt.M.ULI.Unit(core)
				unit.SetHandler(func(thief int) uint64 {
					return c.uliHandler(thief)
				})
				// Loss-recovery hooks: only invoked when steal-path
				// messages actually get dropped or time out.
				unit.SetSalvage(func(p uint64) { c.salvageTask(mem.Addr(p)) })
				unit.SetRestitute(func(p uint64) { c.restituteTask(mem.Addr(p)) })
				cc.ULIEnable()
			}
			if core == 0 {
				rt.runMain(c, root)
			} else {
				c.workerLoop()
			}
			if rt.Variant == DTS {
				cc.ULIDisable()
			}
		})
	}
	err := rt.M.Run()
	if rt.degradedSince > 0 {
		rt.Stats.DegradedCycles = uint64(rt.M.Kernel.Now() - rt.degradedSince)
	}
	return err
}

// runMain executes the root task directly on the main thread.
func (rt *RT) runMain(c *Ctx, root Body) {
	rootDesc := c.newTask(fidRuntime, root)
	c.cur = rootDesc
	c.core.SetFunc(fidRuntime, rt.footprint(fidRuntime))
	c.env.Compute(c.rt.Costs.TaskProlog)
	root(c)
	c.freeTask(rootDesc)
	// Signal termination with a coherent write.
	c.env.Amo(rt.doneAddr, cache.AmoOr, 1, 0)
	c.trace(trace.Done, 0)
	rt.Stats.LocalExecs++
}
