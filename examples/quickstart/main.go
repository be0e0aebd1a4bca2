// Quickstart: the paper's Figure 2 fib example, run on a simulated
// big.TINY machine with heterogeneous cache coherence and direct task
// stealing.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/wsrt"
)

func main() {
	// Build the paper's 64-core big.TINY system: 4 big out-of-order
	// MESI cores + 60 tiny in-order GPU-WB cores, with ULI hardware for
	// direct task stealing.
	cfg, err := machine.Lookup("bT/HCC-DTS-gwb")
	if err != nil {
		log.Fatal(err)
	}
	m := machine.New(cfg)

	// Attach the work-stealing runtime. AutoVariant picks the DTS
	// engine because the machine has ULI hardware.
	rt := wsrt.New(m, wsrt.AutoVariant(m))
	fibFunc := rt.RegisterFunc("fib", 512)

	// fib, exactly as in paper Figure 2: each task forks two children
	// and waits; results flow through simulated memory, so the runtime's
	// flush/invalidate discipline is what makes this correct on GPU-WB
	// caches.
	var fib func(c *wsrt.Ctx, n uint64, sum mem.Addr)
	fib = func(c *wsrt.Ctx, n uint64, sum mem.Addr) {
		c.Compute(8) // function body overhead
		if n < 2 {
			c.Store(sum, n)
			return
		}
		x := c.Alloc(1)
		y := c.Alloc(1)
		c.Fork(fibFunc,
			func(cc *wsrt.Ctx) { fib(cc, n-1, x) },
			func(cc *wsrt.Ctx) { fib(cc, n-2, y) },
		)
		a, b := c.Load2(x, y) // two independent loads, one wait
		c.Store(sum, a+b)
	}

	out := m.Mem.AllocWords(1)
	if err := rt.Run(func(c *wsrt.Ctx) { fib(c, 20, out) }); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fib(20)          = %d\n", m.Cache.DebugReadWord(out))
	fmt.Printf("simulated cycles = %d\n", m.Kernel.Now())
	fmt.Printf("runtime          = %v\n", rt.Stats)
	if m.ULI != nil {
		fmt.Printf("direct steals    = %d acks, %d nacks, %.1f-cycle avg round trip\n",
			m.ULI.Stats.Acks, m.ULI.Stats.Nacks, m.ULI.Stats.AvgLatency())
	}
}
