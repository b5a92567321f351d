package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// WriteJSON serialises the sweep result as indented JSON — the CI artifact
// format. Integer-keyed maps (ByModel) and string-keyed maps (ByRegion)
// both round-trip through encoding/json.
func (r *SweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("fleet: encode sweep: %w", err)
	}
	return nil
}

// ReadJSON deserialises a sweep result written by WriteJSON. A truncated
// stream (an interrupted phi-bench, a half-uploaded artifact) is reported
// as such instead of surfacing a bare syntax error, and so is anything
// after the artifact: a worker that streams its partial on stdout must
// write nothing else there.
func ReadJSON(r io.Reader) (*SweepResult, error) {
	var out SweepResult
	dec := json.NewDecoder(r)
	if err := dec.Decode(&out); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("fleet: sweep JSON is truncated or empty: %w", err)
		}
		return nil, fmt.Errorf("fleet: decode sweep: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, errors.New("fleet: sweep JSON is followed by other data")
	}
	return &out, nil
}

// WriteFile writes the sweep result to path.
func (r *SweepResult) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a complete sweep result from path. Missing and truncated
// files error, and so does a shard partial written by phi-bench -shard:
// rendering one shard as if it were the campaign would silently misreport
// every figure, so partials must go through phi-merge (or MergeFiles)
// first.
func ReadFile(path string) (*SweepResult, error) {
	r, err := readSweepFile(path)
	if err != nil {
		return nil, err
	}
	if r.Shard != nil {
		return nil, fmt.Errorf("fleet: %s is unmerged shard partial %s of a sweep; fold the %d shards with phi-merge first",
			path, r.Shard, r.Shard.Count)
	}
	return r, nil
}

// ReadShardFile reads a shard-partial sweep artifact from path — the
// inverse of ReadFile: a complete (monolithic or merged) artifact is
// rejected, since feeding one to a merge or a supervisor's validation step
// means some producer mislabelled its output.
func ReadShardFile(path string) (*SweepResult, error) {
	r, err := readSweepFile(path)
	if err != nil {
		return nil, err
	}
	if r.Shard == nil {
		return nil, fmt.Errorf("fleet: %s is a complete sweep artifact, not a shard partial", path)
	}
	return r, nil
}

// readSweepFile reads a sweep result — complete or shard-partial — from
// path, decorating errors with the path.
func readSweepFile(path string) (*SweepResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	defer f.Close()
	r, err := ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return r, nil
}
