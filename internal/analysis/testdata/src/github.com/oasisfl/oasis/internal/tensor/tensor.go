// Package tensor is a stub of the real internal/tensor arena API, placed
// at the real import path so poolpair's defaults apply unchanged.
package tensor

type Tensor struct{ data []float64 }

func NewPooled(shape ...int) *Tensor { return &Tensor{} }

func NewPooledRaw(shape ...int) *Tensor { return &Tensor{} }

func New(shape ...int) *Tensor { return &Tensor{} }

func (t *Tensor) ClonePooled() *Tensor { return &Tensor{} }

func (t *Tensor) Release() {}

func (t *Tensor) Sum() float64 { return 0 }

func (t *Tensor) Scale(f float64) {}
