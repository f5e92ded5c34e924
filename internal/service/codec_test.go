package service

import (
	"bytes"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

func codecRequest() PartitionRequest {
	return PartitionRequest{
		Tenant: "tenant-a",
		Devices: []DeviceSpec{
			{Preset: "netlib-blas", Seed: 1, Noise: 0.02},
			{Preset: "fast", Seed: 2, Noise: 0},
		},
		Grid:      Grid{Lo: 16, Hi: 5000, N: 20},
		Model:     "piecewise",
		Algorithm: "geometric",
		D:         10000,
	}
}

// TestDecodeJSONRejectsUnknownFields: the codec round-trips a request and
// is strict — an unknown field, like malformed or mistyped JSON, is an
// error, and every POST endpoint answers it with a 400.
func TestDecodeJSONRejectsUnknownFields(t *testing.T) {
	var enc bytes.Buffer
	if err := EncodeJSON(&enc, codecRequest()); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"valid", enc.String(), true},
		{"unknown field", `{"tenant":"x","bogus":1}`, false},
		{"malformed", `{"tenant":`, false},
		{"empty", ``, false},
		{"wrong type", `{"d":"not a number"}`, false},
	}
	for _, tc := range cases {
		var got PartitionRequest
		err := DecodeJSON(strings.NewReader(tc.in), &got)
		if (err == nil) != tc.ok {
			t.Fatalf("%s: want ok=%v, got error %v", tc.name, tc.ok, err)
		}
		if err == nil && !reflect.DeepEqual(got, codecRequest()) {
			t.Errorf("%s: round trip changed the request: %+v", tc.name, got)
		}
	}

	_, ts := newTestServer(t, Config{})
	for _, o := range ops {
		resp, err := http.Post(ts.URL+o.path(), "application/json", strings.NewReader(`{"tenant":"x","bogus":1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with an unknown field: status %d, want 400", o.path(), resp.StatusCode)
		}
	}
}
