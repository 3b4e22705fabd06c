// Package docgate is the documentation and surface quality gate run by
// CI's docs job. Its tests fail the build when an exported identifier
// in the gated packages — the serving tier (internal/jobs,
// internal/gateway, internal/edgelog) and the distributed layers
// (internal/cluster, internal/objstore, internal/transport,
// internal/durable) — lacks a doc comment, when a relative link in the
// top-level markdown docs (README.md, ARCHITECTURE.md, BENCHMARKS.md,
// OPERATIONS.md) points at a file that does not exist, or when a
// committed BENCH_<id>.json emission is missing or drifts from the
// schema documented in BENCHMARKS.md.
//
// The surface gates read the module type-checked (go list -export, then
// go/types over every package's source): an exported function or method
// under internal/ that no non-test file uses, or an option field that no
// deployment sets, fails unless allow-listed with a reason, and a use
// counts only where an identifier resolves to that very object. The
// layer gate pins every package's in-module imports to ARCHITECTURE.md's
// package map and keeps the simulated systems out of both daemons.
// Keeping the gate as ordinary Go tests means it needs no extra tooling
// in CI and runs in every local `go test ./...`.
package docgate
