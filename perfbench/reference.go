package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// referenceJSON pins, per workload and reference seed, the SHA-256 of the
// canonical simulated outputs at the workload's reference shape. Regenerate
// it with -write-reference only when a change to the simulator's behaviour
// is intended and justified on its own.
//
//go:embed reference.json
var referenceJSON []byte

// references maps workload name → seed (decimal) → digest hash.
type references map[string]map[string]string

func loadReferences() (references, error) {
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("perfbench: reference.json: %w", err)
	}
	return refs, nil
}

func hashDigest(digest string) string {
	sum := sha256.Sum256([]byte(digest))
	return hex.EncodeToString(sum[:])
}

// check reports whether digest is the pinned output of workload at seed.
func (r references) check(workload string, seed int64, digest string) error {
	want, ok := r[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return fmt.Errorf("no reference digest for %s seed %d", workload, seed)
	}
	if got := hashDigest(digest); got != want {
		return fmt.Errorf("%s seed %d: output digest %s, reference %s; outputs:\n%s", workload, seed, got[:12], want[:12], digest)
	}
	return nil
}

// writeReferences recomputes every workload's reference digests and
// writes them to path.
func writeReferences(path string) error {
	refs := references{}
	for _, w := range allWorkloads() {
		refs[w.name] = map[string]string{}
		for _, seed := range referenceSeeds {
			res, err := w.reference(seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if res.failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d checked outputs failed; not pinning them", w.name, seed, res.failed, res.checked)
			}
			refs[w.name][strconv.FormatInt(seed, 10)] = hashDigest(res.digest)
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
