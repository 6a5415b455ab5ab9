// Package gbcr is a from-scratch Go reproduction of "Group-based
// Coordinated Checkpointing for MPI: A Case Study on InfiniBand" (Gao,
// Huang, Koop, Panda — ICPP 2007).
//
// The repository contains a deterministic discrete-event simulation of the
// paper's entire stack — an InfiniBand-like fabric with explicit connection
// management, an MPI library with eager/rendezvous protocols and
// collectives, a PVFS2-like shared storage system with max-min fair
// bandwidth sharing, a BLCR-like snapshot layer — and, on top, the paper's
// contribution: group-based coordinated checkpointing with message and
// request buffering, epoch-gated reconnection, and passive inter-group
// coordination.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for the paper-vs-measured
// comparison. The tests of internal/figures regenerate and check every
// figure in the paper's evaluation section; `go run ./cmd/figures` prints
// them as tables.
package gbcr
