package fl

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/oasisfl/oasis/internal/nn"
)

// Checkpointing serializes complete models — architecture, weights and
// normalization state — through the same ModelSpec codec the transport uses,
// wrapped in gzip. A checkpoint restores to a functionally identical
// network, so training (centralized or federated) can resume, and the Table
// I models can be inspected offline.

// checkpointMagic guards against feeding arbitrary gzip files to the
// decoder.
const checkpointMagic = "oasis-model-v1"

// checkpointFile is the on-disk layout.
type checkpointFile struct {
	Magic string
	Spec  ModelSpec
}

// SaveModel writes the model to path (directories are created). The format
// is gzip-compressed gob of the model's wire description.
func SaveModel(net *nn.Sequential, path string) error {
	spec, err := EncodeModel(net)
	if err != nil {
		return fmt.Errorf("fl: checkpoint %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("fl: checkpoint %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("fl: checkpoint %s: %w", path, err)
	}
	defer f.Close()
	if err := WriteModel(f, spec); err != nil {
		return fmt.Errorf("fl: checkpoint %s: %w", path, err)
	}
	return f.Close()
}

// LoadModel reads a checkpoint written by SaveModel.
func LoadModel(path string) (*nn.Sequential, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fl: checkpoint %s: %w", path, err)
	}
	defer f.Close()
	spec, err := ReadModel(f)
	if err != nil {
		return nil, fmt.Errorf("fl: checkpoint %s: %w", path, err)
	}
	net, err := DecodeModel(spec)
	if err != nil {
		return nil, fmt.Errorf("fl: checkpoint %s: %w", path, err)
	}
	return net, nil
}

// WriteModel streams a model spec as a gzip-compressed checkpoint.
func WriteModel(w io.Writer, spec ModelSpec) error {
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(checkpointFile{Magic: checkpointMagic, Spec: spec}); err != nil {
		return fmt.Errorf("fl: encode checkpoint: %w", err)
	}
	return zw.Close()
}

// ReadModel parses a checkpoint stream back into a model spec.
func ReadModel(r io.Reader) (ModelSpec, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return ModelSpec{}, fmt.Errorf("fl: checkpoint is not gzip: %w", err)
	}
	defer zr.Close()
	var file checkpointFile
	if err := gob.NewDecoder(zr).Decode(&file); err != nil {
		return ModelSpec{}, fmt.Errorf("fl: decode checkpoint: %w", err)
	}
	if file.Magic != checkpointMagic {
		return ModelSpec{}, fmt.Errorf("fl: checkpoint magic %q is not %q", file.Magic, checkpointMagic)
	}
	return file.Spec, nil
}
