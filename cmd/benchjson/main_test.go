package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: gbcr
cpu: whatever
BenchmarkFig1StorageBandwidth-8         1        5234129 ns/op            31.52 MB/s/1client         4.41 MB/s/32clients
BenchmarkEmitDisabled-8         1000000000               0.52 ns/op            0 B/op          0 allocs/op
PASS
ok      gbcr    1.234s
pkg: gbcr/internal/obs
BenchmarkEmitMemory-8    5000000               120.0 ns/op
ok      gbcr/internal/obs       0.7s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("benchmarks: %d, want 3", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Package != "gbcr" || b.Name != "BenchmarkFig1StorageBandwidth-8" || b.Iterations != 1 {
		t.Fatalf("first: %+v", b)
	}
	if len(b.Metrics) != 3 || b.Metrics[0].Unit != "ns/op" || b.Metrics[1].Value != 31.52 {
		t.Fatalf("first metrics: %+v", b.Metrics)
	}
	if doc.Benchmarks[2].Package != "gbcr/internal/obs" {
		t.Fatalf("third package: %q", doc.Benchmarks[2].Package)
	}
}

func TestAnnotatePrev(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := 9000.0, 64.0
	prev := document{Benchmarks: []benchJSON{
		{Package: "gbcr", Name: "BenchmarkFig1StorageBandwidth-8", Metrics: []metricJSON{
			{Unit: "ns/op", Value: v1},
			{Unit: "other-unit", Value: 1}, // unit absent from the new run
		}},
		{Package: "gbcr/internal/obs", Name: "BenchmarkEmitMemory-8", Metrics: []metricJSON{
			{Unit: "ns/op", Value: v2},
		}},
	}}
	annotatePrev(&doc, prev)
	m := doc.Benchmarks[0].Metrics
	if m[0].Prev == nil || *m[0].Prev != v1 {
		t.Fatalf("first ns/op prev: %+v", m[0])
	}
	if m[1].Prev != nil {
		t.Fatalf("MB/s metric should have no prev: %+v", m[1])
	}
	// BenchmarkEmitDisabled has no previous entry at all.
	for _, m := range doc.Benchmarks[1].Metrics {
		if m.Prev != nil {
			t.Fatalf("unmatched benchmark got a prev: %+v", m)
		}
	}
	if p := doc.Benchmarks[2].Metrics[0].Prev; p == nil || *p != v2 {
		t.Fatalf("obs ns/op prev: %v", p)
	}
}

func TestParseRejectsFailAndEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("FAIL\tgbcr\t0.1s\nBenchmarkX-8 1 5 ns/op\n")); err == nil {
		t.Fatal("FAIL line not rejected")
	}
	if _, err := parse(strings.NewReader("PASS\nok gbcr 0.1s\n")); err == nil {
		t.Fatal("empty run not rejected")
	}
}
