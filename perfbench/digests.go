package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"aegis/internal/experiments"
)

// digests.json holds the reference digest of experiments.RunAll at the
// quick preset for each experiment seed paper-quick uses; regenerate it
// with `go run . --record-digests > digests.json` after a change that
// is meant to alter results.
//
//go:embed digests.json
var digestsJSON []byte

// referenceDigests maps experiment seed → digest of the RunAll result.
var referenceDigests = func() map[int64]string {
	var raw map[string]string
	if err := json.Unmarshal(digestsJSON, &raw); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err))
	}
	out := make(map[int64]string, len(raw))
	for k, v := range raw {
		seed, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			panic(fmt.Sprintf("digests.json: seed %q: %v", k, err))
		}
		out[seed] = v
	}
	return out
}()

// digestSeeds is the number of experiment seeds with a reference.
const digestSeeds = 16

// recordDigests runs RunAll for every reference seed and prints the
// table digests.json holds.
func recordDigests() error {
	out := make(map[string]string, digestSeeds)
	for s := int64(1); s <= digestSeeds; s++ {
		p := experiments.Quick()
		p.Seed = s
		p.Workers = simWorkers
		res, err := experiments.RunAll(p)
		if err != nil {
			return err
		}
		out[strconv.FormatInt(s, 10)] = digest(res)
		fmt.Fprintf(os.Stderr, "seed %d done\n", s)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
