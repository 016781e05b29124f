package ml

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Serialization uses versioned JSON documents so enrolled models
// survive process restarts (a real deployment enrolls once and loads
// at boot; re-enrolling on every start would defeat the paper's
// low-effort setup story).

const (
	svmFormatVersion     = 1
	convNetFormatVersion = 1
)

// Typed load errors. Every failure mode of LoadSVM/LoadConvNet chains
// to one of these — corruption and version skew must surface as
// matchable errors (never panics), because the cluster snapshot path
// feeds these decoders bytes that crossed the network.
var (
	// ErrUnsupportedVersion: the document's format version is not one
	// this build reads.
	ErrUnsupportedVersion = errors.New("ml: unsupported model format version")
	// ErrCorruptModel: the document failed to decode or is internally
	// inconsistent (truncated, shape mismatch, unknown kernel, ...).
	ErrCorruptModel = errors.New("ml: corrupt model document")
)

// svmDTO is the on-disk form of a trained SVM.
type svmDTO struct {
	Version        int         `json:"version"`
	C              float64     `json:"c"`
	KernelName     string      `json:"kernel"`
	Gamma          float64     `json:"gamma,omitempty"`
	SupportVectors [][]float64 `json:"support_vectors"`
	SupportLabels  []float64   `json:"support_labels"`
	Alphas         []float64   `json:"alphas"`
	Bias           float64     `json:"bias"`
	PlattA         float64     `json:"platt_a"`
	PlattB         float64     `json:"platt_b"`
	HasPlatt       bool        `json:"has_platt"`
}

// SaveSVM writes a trained SVM to w as versioned JSON.
func SaveSVM(w io.Writer, s *SVM) error {
	dto := svmDTO{
		Version:        svmFormatVersion,
		C:              s.C,
		SupportVectors: s.x,
		SupportLabels:  s.y,
		Alphas:         s.alpha,
		Bias:           s.b,
		PlattA:         s.plattA,
		PlattB:         s.plattB,
		HasPlatt:       s.hasPlatt,
	}
	switch k := s.Kernel.(type) {
	case LinearKernel:
		dto.KernelName = "linear"
	case RBFKernel:
		dto.KernelName = "rbf"
		dto.Gamma = k.Gamma
	default:
		return fmt.Errorf("ml: cannot serialize kernel %T", s.Kernel)
	}
	return json.NewEncoder(w).Encode(dto)
}

// LoadSVM reads a trained SVM written by SaveSVM.
func LoadSVM(r io.Reader) (*SVM, error) {
	var dto svmDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("%w: decoding SVM: %v", ErrCorruptModel, err)
	}
	if dto.Version != svmFormatVersion {
		return nil, fmt.Errorf("%w: SVM version %d (want %d)", ErrUnsupportedVersion, dto.Version, svmFormatVersion)
	}
	if len(dto.SupportVectors) != len(dto.Alphas) || len(dto.SupportVectors) != len(dto.SupportLabels) {
		return nil, fmt.Errorf("%w: inconsistent SVM document (%d vectors, %d alphas, %d labels)",
			ErrCorruptModel, len(dto.SupportVectors), len(dto.Alphas), len(dto.SupportLabels))
	}
	var kernel Kernel
	switch dto.KernelName {
	case "linear":
		kernel = LinearKernel{}
	case "rbf":
		kernel = RBFKernel{Gamma: dto.Gamma}
	default:
		return nil, fmt.Errorf("%w: unknown kernel %q", ErrCorruptModel, dto.KernelName)
	}
	s := NewSVM(dto.C, kernel)
	s.x = dto.SupportVectors
	s.y = dto.SupportLabels
	s.alpha = dto.Alphas
	s.b = dto.Bias
	s.plattA, s.plattB = dto.PlattA, dto.PlattB
	s.hasPlatt = dto.HasPlatt
	return s, nil
}

// maxConvNetDim caps each architecture dimension a loaded document may
// request. The budget is checked BEFORE any layer allocation so a
// hostile document cannot make LoadConvNet allocate gigabytes or hand
// a negative size to make (which would panic).
const maxConvNetDim = 1 << 16

// validateConvNetConfig rejects architecture parameters that would
// make initLayers panic or allocate absurdly.
func validateConvNetConfig(cfg ConvNetConfig) error {
	dims := []struct {
		name string
		v    int
	}{
		{"input_dim", cfg.InputDim},
		{"kernel_size", cfg.KernelSize},
		{"hidden_dim", cfg.HiddenDim},
	}
	for _, d := range dims {
		if d.v < 1 || d.v > maxConvNetDim {
			return fmt.Errorf("%w: ConvNet %s %d out of range [1, %d]", ErrCorruptModel, d.name, d.v, maxConvNetDim)
		}
	}
	if len(cfg.ConvChannels) > 64 {
		return fmt.Errorf("%w: ConvNet has %d conv layers (max 64)", ErrCorruptModel, len(cfg.ConvChannels))
	}
	for i, ch := range cfg.ConvChannels {
		if ch < 1 || ch > maxConvNetDim {
			return fmt.Errorf("%w: ConvNet conv layer %d channels %d out of range [1, %d]", ErrCorruptModel, i, ch, maxConvNetDim)
		}
	}
	return nil
}

// standardizerDTO is the on-disk form of a fitted Standardizer.
type standardizerDTO struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

// MarshalJSON implements json.Marshaler.
func (s *Standardizer) MarshalJSON() ([]byte, error) {
	return json.Marshal(standardizerDTO{Mean: s.mean, Std: s.std})
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Standardizer) UnmarshalJSON(data []byte) error {
	var dto standardizerDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return fmt.Errorf("ml: decoding standardizer: %w", err)
	}
	if len(dto.Mean) != len(dto.Std) {
		return fmt.Errorf("ml: inconsistent standardizer (%d means, %d stds)", len(dto.Mean), len(dto.Std))
	}
	s.mean, s.std = dto.Mean, dto.Std
	return nil
}

// convNetDTO is the on-disk form of a trained ConvNet.
type convNetDTO struct {
	Version int           `json:"version"`
	Cfg     ConvNetConfig `json:"config"`
	Convs   []layerDTO    `json:"convs"`
	Dense1  layerDTO      `json:"dense1"`
	Dense2  layerDTO      `json:"dense2"`
}

type layerDTO struct {
	W []float64 `json:"w"`
	B []float64 `json:"b"`
}

// SaveConvNet writes a trained network to w as versioned JSON.
func SaveConvNet(w io.Writer, c *ConvNet) error {
	if c.dense2 == nil {
		return fmt.Errorf("ml: cannot serialize an untrained ConvNet")
	}
	dto := convNetDTO{
		Version: convNetFormatVersion,
		Cfg:     c.Cfg,
		Dense1:  layerDTO{W: c.dense1.w, B: c.dense1.b},
		Dense2:  layerDTO{W: c.dense2.w, B: c.dense2.b},
	}
	for _, l := range c.convs {
		dto.Convs = append(dto.Convs, layerDTO{W: l.w, B: l.b})
	}
	return json.NewEncoder(w).Encode(dto)
}

// LoadConvNet reads a network written by SaveConvNet. The returned
// network can Predict immediately and ContinueFit for incremental
// adaptation (optimizer state restarts fresh).
func LoadConvNet(r io.Reader) (*ConvNet, error) {
	var dto convNetDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("%w: decoding ConvNet: %v", ErrCorruptModel, err)
	}
	if dto.Version != convNetFormatVersion {
		return nil, fmt.Errorf("%w: ConvNet version %d (want %d)", ErrUnsupportedVersion, dto.Version, convNetFormatVersion)
	}
	if len(dto.Convs) != len(dto.Cfg.ConvChannels) {
		return nil, fmt.Errorf("%w: ConvNet document has %d conv layers, config wants %d",
			ErrCorruptModel, len(dto.Convs), len(dto.Cfg.ConvChannels))
	}
	if err := validateConvNetConfig(dto.Cfg); err != nil {
		return nil, err
	}
	// Check every layer's shape against the config before building the
	// network, so a document that claims a huge network costs what it
	// carries, not what it claims (each dimension is at most 2^16, so
	// the products cannot overflow).
	inC := dto.Cfg.InputDim
	for i, outC := range dto.Cfg.ConvChannels {
		if len(dto.Convs[i].W) != outC*inC*dto.Cfg.KernelSize || len(dto.Convs[i].B) != outC {
			return nil, fmt.Errorf("%w: conv layer %d shape mismatch", ErrCorruptModel, i)
		}
		inC = outC
	}
	hidden := dto.Cfg.HiddenDim
	if len(dto.Dense1.W) != 2*inC*hidden || len(dto.Dense1.B) != hidden || len(dto.Dense2.W) != hidden || len(dto.Dense2.B) != 1 {
		return nil, fmt.Errorf("%w: dense layer shape mismatch", ErrCorruptModel)
	}
	c := NewConvNet(dto.Cfg)
	// Build layers with the right shapes, then overwrite weights.
	rng := randForInit(dto.Cfg.Seed)
	c.initLayers(rng)
	for i, l := range c.convs {
		copy(l.w, dto.Convs[i].W)
		copy(l.b, dto.Convs[i].B)
	}
	copy(c.dense1.w, dto.Dense1.W)
	copy(c.dense1.b, dto.Dense1.B)
	copy(c.dense2.w, dto.Dense2.W)
	copy(c.dense2.b, dto.Dense2.B)
	return c, nil
}
