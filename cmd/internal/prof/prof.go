// Package prof writes the host CPU and allocation profiles that the commands'
// -cpuprofile and -memprofile flags ask for, in the pprof format `go tool
// pprof` reads.
package prof

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start creates both files up front, so a path that cannot be written fails
// before any work is done, and starts the CPU profile. An empty path skips
// that profile. The returned stop ends the CPU profile and writes the
// allocation profile after a garbage collection, so its in-use figures are
// current; only its first call does anything.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, errors.Join(err, closeFile(cpu))
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, errors.Join(err, closeFile(cpu), closeFile(mem))
		}
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if mem != nil {
			runtime.GC()
			errs = append(errs, pprof.Lookup("allocs").WriteTo(mem, 0), mem.Close())
		}
		return errors.Join(errs...)
	}, nil
}

// closeFile closes f when it was opened.
func closeFile(f *os.File) error {
	if f == nil {
		return nil
	}
	return f.Close()
}
