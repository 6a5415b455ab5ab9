package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// F64ToBytes encodes a float64 slice for transmission.
func F64ToBytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(f))
	}
	return out
}

// BytesToF64 decodes a float64 slice. A length that is not a multiple of 8
// is a malformed datatype, which real MPI aborts on: the error is the
// caller's to fail the run with.
func BytesToF64(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mpi: float64 payload of %d bytes is not a multiple of 8", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// I64ToBytes encodes an int64 slice for transmission.
func I64ToBytes(v []int64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// BytesToI64 decodes an int64 slice; see BytesToF64 for the error.
func BytesToI64(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mpi: int64 payload of %d bytes is not a multiple of 8", len(b))
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}
