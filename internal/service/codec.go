package service

import (
	"encoding/json"
	"io"
)

// EncodeJSON writes v as JSON, with a trailing newline, to w.
func EncodeJSON(w io.Writer, v any) error {
	return json.NewEncoder(w).Encode(v)
}

// DecodeJSON parses one JSON value from r into v, rejecting unknown
// fields.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
