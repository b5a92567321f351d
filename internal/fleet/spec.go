package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// WriteSpec serialises the sweep spec as indented JSON — the file format
// phi-bench -spec consumes, so a shard worker can be driven from one
// self-describing file instead of a flag soup (the seam cmd/phi-fleet fans
// out over). The execution hooks (Progress, ObserveInjection, ObserveBeam)
// are not part of the spec and are never serialised.
func (s Sweep) WriteSpec(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("fleet: encode sweep spec: %w", err)
	}
	return nil
}

// WriteSpecFile writes the sweep spec to path.
func (s Sweep) WriteSpecFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if err := s.WriteSpec(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSpec deserialises a sweep spec written by WriteSpec. Unknown fields
// are rejected, so handing a worker something that is not a spec — say a
// SweepResult artifact — fails loudly instead of silently running a sweep
// with default parameters.
func ReadSpec(r io.Reader) (Sweep, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Sweep
	if err := dec.Decode(&s); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Sweep{}, fmt.Errorf("fleet: sweep spec is truncated or empty: %w", err)
		}
		return Sweep{}, fmt.Errorf("fleet: not a sweep spec: %w", err)
	}
	return s, nil
}

// SpecString returns the spec as a string — exactly the bytes WriteSpec
// produces — for callers that want the spec as a value rather than a
// stream, such as an HTTP request body. ReadSpec over a strings.Reader is
// its inverse; the round-trip is lossless because the spec encoding is
// UTF-8 JSON.
func (s Sweep) SpecString() (string, error) {
	var b strings.Builder
	if err := s.WriteSpec(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// ReadSpecFile reads a sweep spec from path.
func ReadSpecFile(path string) (Sweep, error) {
	f, err := os.Open(path)
	if err != nil {
		return Sweep{}, fmt.Errorf("fleet: %w", err)
	}
	defer f.Close()
	s, err := ReadSpec(f)
	if err != nil {
		return Sweep{}, fmt.Errorf("%w (%s)", err, path)
	}
	return s, nil
}
