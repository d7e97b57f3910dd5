package qpu

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"hyqsat/internal/anneal"
)

// TestSampleResponseRoundTrip: a read set encoded the way /v1/qpu/sample
// answers, sent through JSON and decoded back, is the sampler's read set bit
// for bit, so a wire client sees exactly what a local one would.
func TestSampleResponseRoundTrip(t *testing.T) {
	ep := testEmbeddedProblem(t)
	want := anneal.NewSampler(anneal.DefaultSchedule(), anneal.NoNoise, 7).Sample(ep, 4)
	blob, err := json.Marshal(EncodeReadSet(&want))
	if err != nil {
		t.Fatal(err)
	}
	var sr SampleResponse
	if err := json.Unmarshal(blob, &sr); err != nil {
		t.Fatal(err)
	}
	got, err := sr.ReadSet()
	if err != nil {
		t.Fatalf("decoding an encoded read set: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wire round trip changed the read set:\ngot:  %+v\nwant: %+v", got, want)
	}
	if err := anneal.ValidateReadSet(ep, &got, 4); err != nil {
		t.Fatalf("decoded read set invalid: %v", err)
	}
}

// FuzzSampleResponseDecode: an arbitrary /v1/qpu/sample response body must
// never panic the decoder. Every body that decodes as JSON must convert to
// either a non-empty read set whose Best indexes one of its samples or a
// typed *anneal.ReadSetError.
func FuzzSampleResponseDecode(f *testing.F) {
	f.Add([]byte(`{"samples":[{"nodes":[0],"values":[true],"energy":1.5}],"best":0}`))
	f.Add([]byte(`{"samples":[],"best":0}`))
	f.Add([]byte(`{"samples":[{"nodes":[0],"values":[true],"energy":0}],"best":5}`))
	f.Add([]byte(`{"samples":[{"nodes":[0,1],"values":[true],"energy":0}],"best":0}`))
	f.Add([]byte(`{"samples":[{"nodes":[0,0],"values":[true,true],"energy":0}],"best":0}`))
	f.Add([]byte(`{"samples":[{"nodes":[0,1],"val`))
	f.Add([]byte(`{]]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		var sr SampleResponse
		if json.Unmarshal(body, &sr) != nil {
			return
		}
		rs, err := sr.ReadSet()
		if err == nil {
			if len(rs.Samples) == 0 || rs.Best < 0 || rs.Best >= len(rs.Samples) {
				t.Fatalf("accepted inconsistent read set: %+v", rs)
			}
			return
		}
		var rse *anneal.ReadSetError
		if !errors.As(err, &rse) || rse.Reason != "shape" {
			t.Fatalf("untyped decode failure: %v (%T)", err, err)
		}
	})
}
