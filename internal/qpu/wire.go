// The hyqsatd wire protocol for remote QA sampling: one POST per device
// access, JSON both ways. The request carries the flattened embedded problem
// (anneal.WireProblem) and the read count; the response carries the read set
// in a flat, order-preserving form. Headers carry the cross-cutting concerns:
//
//	Idempotency-Key      client-unique id of the logical operation; the
//	                     server caches the response per key, so a transport
//	                     replay never re-executes (or re-charges) the access
//	X-Hyqsat-Tenant      tenant name for quota accounting
//	X-Hyqsat-Deadline-Ms milliseconds of client deadline remaining; the
//	                     server imposes it on its own work
//	Retry-After          (responses) seconds to back off after a 429/503
package qpu

import (
	"fmt"
	"math"
	"sort"

	"hyqsat/internal/anneal"
)

// Wire protocol headers and paths.
const (
	SamplePath        = "/v1/qpu/sample"
	HeaderIdempotency = "Idempotency-Key"
	HeaderTenant      = "X-Hyqsat-Tenant"
	HeaderDeadlineMs  = "X-Hyqsat-Deadline-Ms"
)

// MaxReads bounds the reads of one QPU access: the sample endpoint refuses
// requests beyond it and the CLI rejects a larger -reads, since every access
// sizes its read set by the request.
const MaxReads = 4096

// SampleRequest is the body of a remote sampling call.
type SampleRequest struct {
	Problem *anneal.WireProblem `json:"problem"`
	Reads   int                 `json:"reads"`
}

// WireSample is one read in wire form: parallel node/value arrays instead of
// a map (JSON maps force string keys and lose nothing else).
type WireSample struct {
	Nodes  []int   `json:"nodes"`
	Values []bool  `json:"values"`
	Broken int     `json:"broken"`
	Energy float64 `json:"energy"`
}

// SampleResponse is the body of a successful remote sampling call.
type SampleResponse struct {
	Samples []WireSample `json:"samples"`
	Best    int          `json:"best"`
}

// WireErrorBody is the JSON body of every non-200 service response, so
// clients always have a machine-readable reason alongside the status code.
type WireErrorBody struct {
	Error  string `json:"error"`            // stable tag: "queue_full", "quota", "draining", ...
	Detail string `json:"detail,omitempty"` // human elaboration
}

// maxWireReads bounds the read count either side will accept on the wire; a
// corrupted or hostile count must not size a huge allocation.
const maxWireReads = 1 << 16

// EncodeReadSet converts a read set to wire form. Node order within a sample
// is ascending, so encoding is deterministic.
func EncodeReadSet(rs *anneal.ReadSet) *SampleResponse {
	resp := &SampleResponse{Samples: make([]WireSample, len(rs.Samples)), Best: rs.Best}
	for i := range rs.Samples {
		s := &rs.Samples[i]
		ws := &resp.Samples[i]
		ws.Broken = s.BrokenChains
		ws.Energy = s.HardwareEnergy
		ws.Nodes = make([]int, 0, len(s.NodeValues))
		for node := range s.NodeValues {
			ws.Nodes = append(ws.Nodes, node)
		}
		sort.Ints(ws.Nodes)
		ws.Values = make([]bool, len(ws.Nodes))
		for j, node := range ws.Nodes {
			ws.Values[j] = s.NodeValues[node]
		}
	}
	return resp
}

// ReadSet converts the wire form back. Shape violations (ragged node/value
// arrays, duplicate nodes, absurd sizes, non-finite energies) are rejected
// with a typed *RemoteError reason "shape"; semantic validation against the
// embedding stays the caller's job (anneal.ValidateReadSet).
func (sr *SampleResponse) ReadSet() (anneal.ReadSet, error) {
	shape := func(format string, args ...any) (anneal.ReadSet, error) {
		return anneal.ReadSet{}, &RemoteError{Reason: "shape", Detail: fmt.Sprintf(format, args...)}
	}
	if len(sr.Samples) == 0 {
		return shape("response carries no samples")
	}
	if len(sr.Samples) > maxWireReads {
		return shape("%d samples exceeds the wire limit", len(sr.Samples))
	}
	if sr.Best < 0 || sr.Best >= len(sr.Samples) {
		return shape("best index %d outside [0,%d)", sr.Best, len(sr.Samples))
	}
	rs := anneal.ReadSet{Samples: make([]anneal.Sample, len(sr.Samples)), Best: sr.Best}
	for i := range sr.Samples {
		ws := &sr.Samples[i]
		if len(ws.Nodes) != len(ws.Values) {
			return shape("read %d: %d nodes but %d values", i, len(ws.Nodes), len(ws.Values))
		}
		if len(ws.Nodes) > anneal.MaxWireQubits {
			return shape("read %d: %d nodes exceeds the wire limit", i, len(ws.Nodes))
		}
		if math.IsNaN(ws.Energy) || math.IsInf(ws.Energy, 0) {
			return shape("read %d: non-finite energy", i)
		}
		values := make(map[int]bool, len(ws.Nodes))
		for j, node := range ws.Nodes {
			if _, dup := values[node]; dup {
				return shape("read %d: node %d appears twice", i, node)
			}
			values[node] = ws.Values[j]
		}
		rs.Samples[i] = anneal.Sample{
			NodeValues:     values,
			BrokenChains:   ws.Broken,
			HardwareEnergy: ws.Energy,
		}
	}
	return rs, nil
}
