package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"ipusim/internal/core"
)

// pinnedSeed is the trace-synthesis seed every CLI defaults to. Runs at
// this seed must reproduce the pinned digests below exactly; any other
// seed is checked for agreement across the cycles of one run instead.
const pinnedSeed = 42

// pinned holds, per workload, the SHA-256 over the canonical JSON of every
// simulated Result the workload produces at pinnedSeed, in the workload's
// deterministic order: the 30 matrix cells then the 120 sweep cells for
// figs, the 20 contention rows for tenants, and the 30 verified fresh jobs
// for daemon.
var pinned = map[string]string{
	"figs":    "53ac55d0f9e45537b326926515ebd2f4cbf0f5a29cb5118853b10db119adc6f3",
	"tenants": "93f6989984405473521eb0c798646c76c7481397e3609fed8405eb8415aa3e76",
	"daemon":  "ed0511a9988e2a4223ab8062eb920e9af96eb8ed13e880cdcc7f7225708ebbbb",
}

// digest hashes v's canonical JSON: encoding/json writes struct fields in
// declaration order and floats in their shortest exact form, so equal
// Results hash equally.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // Results and rows hold only marshalable values
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// masked returns a copy of r without what the traced decorator changes:
// the scheme label and the mapping-table size core derives from it.
func masked(r *core.Result) *core.Result {
	if r == nil {
		return nil
	}
	m := *r
	m.Scheme = bareScheme(m.Scheme)
	m.MappingBytes = 0
	m.MappingNormalized = 0
	return &m
}

// maskedDigest hashes results after masking each.
func maskedDigest(results []*core.Result) string {
	ms := make([]*core.Result, len(results))
	for i, r := range results {
		ms[i] = masked(r)
	}
	return digest(ms)
}
