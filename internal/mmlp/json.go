package mmlp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Encode writes the instance as indented JSON.
func (in *Instance) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(in); err != nil {
		return fmt.Errorf("mmlp: encode: %w", err)
	}
	return nil
}

// Decode reads a JSON-encoded instance and validates it. Anything after
// the instance's value but whitespace is malformed JSON.
func Decode(r io.Reader) (*Instance, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("mmlp: decode: %w", err)
	}
	var in Instance
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("mmlp: decode: %w", err)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return &in, nil
}

// WriteFile stores the instance as JSON at path.
func (in *Instance) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mmlp: write %s: %w", path, err)
	}
	defer f.Close()
	if err := in.Encode(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadFile loads a JSON instance from path.
func ReadFile(path string) (*Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mmlp: read %s: %w", path, err)
	}
	defer f.Close()
	return Decode(f)
}
