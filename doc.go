// Package bigtiny is a from-scratch Go reproduction of "Efficiently
// Supporting Dynamic Task Parallelism on Heterogeneous Cache-Coherent
// Systems" (Wang, Ta, Cheng, Batten; ISCA 2020).
//
// It contains a deterministic cycle-approximate simulator of a
// big.TINY manycore (big out-of-order cores with MESI + tiny in-order
// cores with software-centric coherence: DeNovo, GPU-WT, or GPU-WB,
// integrated Spandex-style through a shared banked L2), the paper's
// work-stealing runtime in its three forms (hardware-coherent, HCC
// with invalidate/flush discipline, and direct task stealing over
// user-level interrupts), the 13 Cilk-5/Ligra application kernels of
// the evaluation, and a harness that regenerates every table and
// figure of the paper's evaluation section.
//
// See README.md for a tour and DESIGN.md for the system inventory.
// cmd/paperbench regenerates each table and figure, and docs/golden
// holds its test-size output, which `make golden-check` compares byte
// for byte.
package bigtiny
