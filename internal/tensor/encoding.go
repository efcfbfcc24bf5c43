package tensor

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// wireTensor is the gob wire representation of a Tensor.
type wireTensor struct {
	Shape []int
	Data  []float64
}

// GobEncode implements gob.GobEncoder so tensors can cross the federated
// learning transport.
func (t *Tensor) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wireTensor{Shape: t.shape, Data: t.data}); err != nil {
		return nil, fmt.Errorf("tensor: gob encode: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (t *Tensor) GobDecode(p []byte) error {
	var w wireTensor
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&w); err != nil {
		return fmt.Errorf("tensor: gob decode: %w", err)
	}
	if len(w.Shape) == 0 {
		return fmt.Errorf("tensor: gob decode: empty shape")
	}
	n, err := numElems(w.Shape)
	if err != nil {
		return fmt.Errorf("tensor: gob decode: %w", err)
	}
	if n != len(w.Data) {
		return fmt.Errorf("tensor: gob decode: shape %v does not match %d elements", w.Shape, len(w.Data))
	}
	t.shape = w.Shape
	t.data = w.Data
	return nil
}
