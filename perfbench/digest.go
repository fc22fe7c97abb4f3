package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// expectations holds the expected output digests the benchmark ships,
// keyed by a scale fingerprint (which pins every parameter the outputs
// depend on) and then by output name: a workload name for figure rows,
// a simjob cache key for daemon results. The shipped file covers every
// input any seed can draw at full scale, so each run checks every
// output it produces, not only those of the seeds used to tune it.
type expectations struct {
	Note    string                       `json:"note"`
	Digests map[string]map[string]string `json:"digests"`
}

func loadExpectations(path string) (*expectations, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read expected digests: %w", err)
	}
	var e expectations
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("parse expected digests %s: %w", path, err)
	}
	if e.Digests == nil {
		e.Digests = map[string]map[string]string{}
	}
	return &e, nil
}

// check reports whether out's digest is the expected one for name under
// fingerprint fp. An output with no expected digest fails: it cannot be
// shown correct.
func (e *expectations) check(fp, name string, out []byte) bool {
	want, ok := e.Digests[fp][name]
	return ok && want == digest(out)
}

// set records name's digest under fp (used when generating the file).
func (e *expectations) set(fp, name string, out []byte) {
	if e.Digests[fp] == nil {
		e.Digests[fp] = map[string]string{}
	}
	e.Digests[fp][name] = digest(out)
}

// save writes the expectations with sorted keys, one digest per line.
func (e *expectations) save(path string) error {
	raw, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
