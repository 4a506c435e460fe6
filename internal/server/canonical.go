package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"ipusim/internal/core"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
)

// Content-addressed job identity. The simulator guarantees identical
// (seed, scale, config) ⇒ bit-identical output, so a submission's
// canonical form is a durable address for its result: the result cache,
// the persistent store and the coordinator's placement ring all key on
// jobKey. Canonicalisation makes every output-affecting default explicit
// and drops lifecycle-only fields, so submissions that differ merely in
// JSON key order, formatting, or spelled-out defaults cannot miss the
// cache.

// canonicalRequest returns req in canonical form: defaults applied
// exactly as compile/core normalisation would, fields irrelevant to the
// requested kind zeroed, and lifecycle-only fields (Timeout) cleared.
func canonicalRequest(req JobRequest, defaultScale float64) JobRequest {
	req.Timeout = ""
	// Parallelism is accepted and ignored, so it never splits an address.
	req.Parallelism = 0
	if req.Scale == 0 {
		req.Scale = defaultScale
	}
	if req.Seed == 0 {
		req.Seed = 42
	}
	switch req.Kind {
	case "run":
		if req.Scheme == "" {
			req.Scheme = "IPU"
		}
		// Schema v3: tenants and the write cache are canonicalised with
		// every default made explicit — exactly mirroring compileRun and
		// the core engine — so spelled-out and defaulted submissions share
		// an address. A v2 request leaves both fields absent, marshals
		// without them (omitempty), and keeps its v2 key byte for byte.
		if len(req.Tenants) > 0 {
			// A multi-tenant run never replays the single-stream trace;
			// zeroing it keeps `{"tenants":[...]}` and a stray
			// `{"trace":"ts0","tenants":[...]}` from splitting the cache.
			req.Trace = ""
			req.Tenants = workload.NormalizeTenants(req.Tenants, core.DefaultTenantTrace, req.Seed, req.Scale)
		} else if req.Trace == "" {
			req.Trace = "ts0"
		}
		if req.WriteCache != nil {
			if req.WriteCache.CapacityBytes <= 0 {
				// Non-positive capacity means "no buffer": identical to
				// omitting the field.
				req.WriteCache = nil
			} else {
				wc := req.WriteCache.Normalize()
				req.WriteCache = &wc
			}
		}
		req.Traces, req.Schemes, req.PEBaselines = nil, nil, nil
		req.Param, req.ParamValue = "", 0
		req.Mixes, req.CacheBytes = nil, 0
	case "cell":
		if req.Scheme == "" {
			req.Scheme = "IPU"
		}
		if req.Trace == "" {
			req.Trace = "ts0"
		}
		req.Traces, req.Schemes, req.PEBaselines = nil, nil, nil
		req.QueueDepth = 0
		req.Tenants, req.WriteCache = nil, nil
		req.Mixes, req.CacheBytes = nil, 0
		if req.Param == "" {
			req.ParamValue = 0
		}
	case "matrix":
		if len(req.Traces) == 0 {
			req.Traces = trace.ProfileNames()
		}
		if len(req.Schemes) == 0 {
			req.Schemes = append([]string(nil), core.SchemeNames...)
		}
		if len(req.PEBaselines) == 0 {
			req.PEBaselines = []int{0}
		}
		req.Scheme, req.Trace = "", ""
		req.QueueDepth, req.PEBaseline = 0, 0
		req.Tenants, req.WriteCache = nil, nil
		req.Mixes, req.CacheBytes = nil, 0
		req.Param, req.ParamValue = "", 0
	case "sensitivity":
		if len(req.Traces) == 0 {
			req.Traces = trace.ProfileNames()
		}
		if len(req.Schemes) == 0 {
			req.Schemes = []string{"Baseline", "IPU"}
		}
		req.Scheme, req.Trace = "", ""
		req.QueueDepth, req.PEBaseline = 0, 0
		req.PEBaselines = nil
		req.Tenants, req.WriteCache = nil, nil
		req.Mixes, req.CacheBytes = nil, 0
		req.ParamValue = 0
	case "contention":
		// Schema v4: the contention study canonicalises with every default
		// made explicit — mirroring TenantContentionSpec.normalize and the
		// per-mix tenant normalisation — so defaulted and spelled-out
		// studies share an address. Existing kinds never carry Mixes or
		// CacheBytes (omitempty), so their v2/v3 keys are untouched.
		if len(req.Mixes) == 0 {
			req.Mixes = core.DefaultTenantMixes()
		}
		if len(req.Schemes) == 0 {
			req.Schemes = append([]string(nil), core.SchemeNames...)
		}
		if req.QueueDepth == 0 {
			req.QueueDepth = 16
		}
		if req.CacheBytes == 0 {
			req.CacheBytes = 4 << 20
		}
		mixes := make([]core.TenantMix, len(req.Mixes))
		for i, mix := range req.Mixes {
			mixes[i] = core.TenantMix{
				Name:    mix.Name,
				Tenants: workload.NormalizeTenants(mix.Tenants, core.DefaultTenantTrace, req.Seed, req.Scale),
			}
		}
		req.Mixes = mixes
		req.Scheme, req.Trace = "", ""
		req.Traces, req.PEBaselines = nil, nil
		req.PEBaseline = 0
		req.Tenants, req.WriteCache = nil, nil
		req.Param, req.ParamValue = "", 0
	}
	return req
}

// jobKey returns the deterministic content address of a submission: the
// hex SHA-256 of the canonical request's JSON. Marshalling the struct
// (not the client's raw body) normalises JSON key order, so two
// semantically identical submissions always share a key.
func jobKey(req JobRequest, defaultScale float64) string {
	b, err := json.Marshal(canonicalRequest(req, defaultScale))
	if err != nil {
		// JobRequest holds only plain data; marshalling cannot fail.
		panic("server: marshalling canonical job request: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}
