// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated substrate. Each experiment has a Config
// whose zero value is paper scale, and a Run(ctx, cfg) (Result, error)
// entry point: runs honor context cancellation at coarse checkpoints
// inside their hot loops, and every result satisfies engine.Result — a
// String renderer printing the same rows/series the paper reports plus
// Rows() for structured export.
//
// The registry (All) declares each experiment once: its ID, artifact,
// description, breaker family, quick configuration, runner and the
// paper's claims about it. ByID and Tasks adapt the entries to
// engine.Tasks so cmd/experiments can schedule them on a bounded worker
// pool, and Score judges the claims on a run's export.
// Experiments that fan out internally (per CPU model, noise setting, or
// ablation point) derive each unit's seed from the task seed and the
// unit's labels via engine.DeriveSeed and fan out with engine.Map, so
// results are byte-identical at any parallelism level.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Fig2    — selection-logic learning curve (§5.1)
//	Table1  — prime/target/probe FSM transitions (§6.1)
//	Fig4    — distribution of PHT states after randomization (§6.2)
//	Fig5    — PHT mapping and size discovery (§6.3)
//	Fig6    — covert-channel decoding demonstration (§7)
//	Table2  — covert-channel error rates on three CPUs (§7)
//	Fig7    — branch latency, hit vs miss (§8)
//	Fig8    — timing detection error vs measurement count (§8)
//	Fig9    — probe latency by PHT state (§8)
//	Table3  — covert channel with an SGX-enclave sender (§9.2)
//	Mitigations — §10 defense ablation (extension)
//	Montgomery / JPEG / ASLR — §9.2 attack applications
//	BTBBaseline — prior-work BTB attack comparison (§11)
//
// Expectation calibration: shapes, orderings and crossovers are required
// to match the paper (who wins, error ordering, learning horizon, table
// size, latency separability); absolute numbers belong to the authors'
// silicon and are not reproduced.
package experiments
