// Package cli holds what the commands share: the exit status of a run(args,
// stdout, stderr) error function, the export files they write, and the
// pprof files of -cpuprofile and -memprofile.
package cli

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// ErrUsage reports flags that did not parse; the flag set printed why.
var ErrUsage = errors.New("usage")

// Parse parses args with fs, made with flag.ContinueOnError: -h returns
// flag.ErrHelp, after the usage, and flags that do not parse ErrUsage.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && err != flag.ErrHelp {
		return ErrUsage
	}
	return err
}

// Status is the exit status of a run that returned err, as the flag
// package's ExitOnError has it: 0 on success or -h, 2 when the flags did not
// parse, and otherwise 1, after one "name: ..." line on stderr.
func Status(name string, err error, stderr io.Writer) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, ErrUsage):
		return 2
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	return 1
}

// WriteFile writes what render renders to path, unless path is empty. It
// renders into memory first, so a failed encoding never leaves a truncated
// file.
func WriteFile(path string, render func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		return fmt.Errorf("encoding %s: %v", path, err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// StartProfiles creates both files up front, so a path that cannot be written fails
// before any work is done, and starts the CPU profile. An empty path skips
// that profile. The returned stop ends the CPU profile and writes the
// allocation profile after a garbage collection, so its in-use figures are
// current. It takes the run's error and returns it, with a failure to write
// the profiles appended, so a command stops them in one deferred call.
func StartProfiles(cpuPath, memPath string) (stop func(error) error, err error) {
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
	return func(runErr error) error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if mem != nil {
			runtime.GC()
			errs = append(errs, pprof.Lookup("allocs").WriteTo(mem, 0), mem.Close())
		}
		if err := errors.Join(errs...); err != nil && runErr != nil {
			return fmt.Errorf("%w; writing profiles: %v", runErr, err)
		} else if err != nil {
			return fmt.Errorf("writing profiles: %w", err)
		}
		return runErr
	}, nil
}

// closeFile closes f when it was opened.
func closeFile(f *os.File) error {
	if f == nil {
		return nil
	}
	return f.Close()
}
