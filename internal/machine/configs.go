package machine

import (
	"fmt"
	"slices"
	"sort"

	"bigtiny/internal/cache"
	"bigtiny/internal/sim"
)

// The paper's simulated configurations (§V-A):
//
//	IOx1               single tiny (in-order) core — the "Serial IO" baseline
//	O3x1/O3x4/O3x8     1/4/8 big out-of-order cores, MESI
//	tiny64             64 tiny cores (Figure 4 granularity study)
//	bT/MESI            4 big + 60 tiny, all MESI
//	bT/HCC-dnv         4 big (MESI) + 60 tiny (DeNovo)
//	bT/HCC-gwt         4 big (MESI) + 60 tiny (GPU-WT)
//	bT/HCC-gwb         4 big (MESI) + 60 tiny (GPU-WB)
//	bT/HCC-DTS-*       the three HCC configs plus DTS hardware
//	bT256/*            256-core versions (4 big + 252 tiny, 8x32 mesh,
//	                   32 banks, 4x bandwidth; Table V)

// defaultDeadline bounds runaway simulations.
const defaultDeadline = sim.Time(3_000_000_000)

func base64Core() Config {
	return Config{
		NumBig: 4, NumTiny: 60,
		TinyProto: cache.MESI,
		Rows:      8, Cols: 8,
		NumBanks:   8,
		L1BigBytes: 64 * 1024, L1TinyBytes: 4 * 1024,
		L2SetsPerBank: 1024, L2Ways: 8,
		DRAMBytesPerCycle: 16, // 16 GB/s at 1 GHz
		Deadline:          defaultDeadline,
	}
}

func base256Core() Config {
	c := base64Core()
	c.NumBig, c.NumTiny = 4, 252
	c.Rows, c.Cols = 8, 32
	c.NumBanks = 32
	c.DRAMBytesPerCycle = 64 // 4x the 64-core system (Table V)
	return c
}

func bigOnly(n int) Config {
	c := base64Core()
	c.NumBig, c.NumTiny = n, 0
	c.Rows, c.Cols = 1, 8
	c.Name = fmt.Sprintf("O3x%d", n)
	return c
}

// configs is the named configuration table, built once; Lookup hands
// out copies.
var configs, names = buildConfigs()

func buildConfigs() (map[string]Config, []string) {
	cfgs := map[string]Config{}
	add := func(c Config) { cfgs[c.Name] = c }

	io1 := base64Core()
	io1.NumBig, io1.NumTiny = 0, 1
	io1.Rows, io1.Cols = 1, 8
	io1.Name = "IOx1"
	add(io1)

	add(bigOnly(1))
	add(bigOnly(4))
	add(bigOnly(8))

	t64 := base64Core()
	t64.NumBig, t64.NumTiny = 0, 64
	t64.Name = "tiny64"
	add(t64)

	bt := base64Core()
	bt.Name = "bT/MESI"
	add(bt)

	for _, hcc := range []struct {
		suffix string
		proto  cache.Protocol
	}{
		{"dnv", cache.DeNovo}, {"gwt", cache.GPUWT}, {"gwb", cache.GPUWB},
	} {
		c := base64Core()
		c.TinyProto = hcc.proto
		c.Name = "bT/HCC-" + hcc.suffix
		add(c)
		d := c
		d.DTS = true
		d.Name = "bT/HCC-DTS-" + hcc.suffix
		add(d)
	}

	// Small 8-core DTS system for fast chaos/invariance runs: every
	// fault scenario exercises the full protocol stack without the
	// 64-core simulation cost.
	bt8 := base64Core()
	bt8.NumBig, bt8.NumTiny = 1, 7
	bt8.Rows, bt8.Cols = 2, 4
	bt8.NumBanks = 4
	bt8.TinyProto = cache.GPUWB
	bt8.DTS = true
	bt8.Deadline = 600_000_000
	bt8.Name = "bT8/HCC-DTS-gwb"
	add(bt8)

	// Software-stealing 8-core variants for the open-system latency
	// sweeps: same mesh and deadline as bT8, differing only in tiny-core
	// protocol / DTS so degradation curves isolate the coherence choice.
	bt8m := bt8
	bt8m.TinyProto = cache.MESI
	bt8m.DTS = false
	bt8m.Name = "bT8/MESI"
	add(bt8m)

	bt8g := bt8
	bt8g.DTS = false
	bt8g.Name = "bT8/HCC-gwb"
	add(bt8g)

	bt256 := base256Core()
	bt256.Name = "bT256/MESI"
	add(bt256)
	for _, hcc := range []struct {
		suffix string
		proto  cache.Protocol
	}{
		{"gwb", cache.GPUWB},
	} {
		c := base256Core()
		c.TinyProto = hcc.proto
		c.Name = "bT256/HCC-" + hcc.suffix
		add(c)
		d := c
		d.DTS = true
		d.Name = "bT256/HCC-DTS-" + hcc.suffix
		add(d)
	}
	names := make([]string, 0, len(cfgs))
	for n := range cfgs {
		names = append(names, n)
	}
	sort.Strings(names)
	return cfgs, names
}

// Lookup returns the named config or an error listing valid names.
func Lookup(name string) (Config, error) {
	if c, ok := configs[name]; ok {
		return c, nil
	}
	return Config{}, fmt.Errorf("machine: unknown config %q (have %v)", name, names)
}

// Names returns all config names, sorted.
func Names() []string {
	return slices.Clone(names)
}
