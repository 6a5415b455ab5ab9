package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// A pin is the pair of SHA-256 digests a workload must reproduce at the
// default seed: one over the set-up's result lines, one over a repetition's.
type pin struct {
	Setup string `json:"setup"`
	Rep   string `json:"rep"`
}

type pins map[string]pin

// The pins are compiled in, so a run reads nothing but its own binary and
// a pin cannot drift from the code it was taken with.
//
//go:embed testdata/digests.json
var pinnedJSON []byte

// pinsFile is where -update-digests writes, relative to the bench directory.
const pinsFile = "testdata/digests.json"

func pinKey(workload string, small bool) string {
	if small {
		return workload + "/small"
	}
	return workload
}

func loadPins() (pins, error) {
	p := pins{}
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("parsing embedded %s: %w", pinsFile, err)
	}
	return p, nil
}

// updatePins re-derives the pin of every named workload at the default seed
// and rewrites pinsFile. A workload whose set-up rounds and repetitions do
// not all agree with each other is refused and nothing is written.
func updatePins(names []string) error {
	p, err := loadPins()
	if err != nil {
		return err
	}
	for _, name := range names {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		for _, small := range []bool{false, true} {
			res, err := measure(runConfig{w: w, seed: defaultSeed, small: small, warmups: 2, reps: 2, update: true})
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s: refusing to pin, %d of %d operations failed: %v", name, res.Failed, res.Attempted, res.Errors)
			}
			p[pinKey(name, small)] = res.Digest
			fmt.Fprintf(os.Stderr, "pinned %s: %+v\n", pinKey(name, small), res.Digest)
		}
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinsFile, append(data, '\n'), 0o644)
}
