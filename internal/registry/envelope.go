// Package registry is the versioned model store behind every decision
// pipeline: an immutable, per-tenant catalog of trained model
// documents with atomic hot-swap, rollback, and online adaptation from
// accepted decisions.
// Decisions resolve their models through one atomic pointer load (a
// ModelSet is immutable once published), so a promote or rollback
// never exposes a torn set to an in-flight request and never requires
// draining the serving engine.
package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// EnvelopeVersion is the model envelope format this build reads and
// writes. It shares the cluster snapshot discipline: a format version,
// an FNV-64a checksum over exactly the payload bytes, and a raw
// payload whose serialization is byte-stable (save → load → save is
// identity), so an envelope re-sealed after a round trip carries the
// same checksum.
const EnvelopeVersion = 1

// Typed envelope errors. Enrollment artifacts, registry imports and
// anything else consuming sealed model documents fail with one of
// these (match with errors.Is), never a panic.
var (
	// ErrModelVersion: the envelope's format version is not one this
	// build reads.
	ErrModelVersion = errors.New("registry: unsupported model envelope version")
	// ErrModelCorrupt: the envelope failed to decode, its payload does
	// not match the recorded checksum, or it is internally
	// inconsistent.
	ErrModelCorrupt = errors.New("registry: corrupt model envelope")
)

// Envelope is one sealed model document: format version, the model
// family it belongs to, its registry version number, and a checksummed
// payload in the model's own serialization format.
type Envelope struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	// ModelVersion is the registry version number the payload was
	// sealed as (0 when sealed outside a registry).
	ModelVersion uint64 `json:"model_version,omitempty"`
	// Checksum is the FNV-64a hash of Payload, hex-encoded.
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// Checksum hashes payload bytes with FNV-64a, hex-encoded: the
// checksum of model envelopes, registry versions and cluster snapshot
// envelopes alike.
func Checksum(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Seal wraps a model document in a checksummed envelope. Whitespace
// around the document is dropped first: an envelope file cannot carry
// it, so a checksum over it could never verify.
func Seal(kind Kind, modelVersion uint64, payload []byte) *Envelope {
	payload = bytes.TrimSpace(payload)
	return &Envelope{
		Version:      EnvelopeVersion,
		Kind:         string(kind),
		ModelVersion: modelVersion,
		Checksum:     Checksum(payload),
		Payload:      payload,
	}
}

// Verify checks the envelope's format version and payload integrity
// without decoding the payload.
func (e *Envelope) Verify() error {
	if e == nil {
		return fmt.Errorf("%w: nil envelope", ErrModelCorrupt)
	}
	if e.Version != EnvelopeVersion {
		return fmt.Errorf("%w: version %d (want %d)", ErrModelVersion, e.Version, EnvelopeVersion)
	}
	if e.Kind == "" {
		return fmt.Errorf("%w: envelope names no model kind", ErrModelCorrupt)
	}
	if len(e.Payload) == 0 {
		return fmt.Errorf("%w: empty payload", ErrModelCorrupt)
	}
	if got := Checksum(e.Payload); got != e.Checksum {
		return fmt.Errorf("%w: payload hashes to %s, envelope says %s", ErrModelCorrupt, got, e.Checksum)
	}
	return nil
}

// WriteEnvelopeFile persists an envelope to path atomically (see
// AtomicWriteFile): a crash mid-write leaves either the previous file
// intact or the new one complete, never a torn document. The payload
// is written verbatim, because the checksum covers its bytes as sealed
// and json.Marshal would compact them.
func WriteEnvelopeFile(path string, e *Envelope) error {
	if !json.Valid(e.Payload) {
		return fmt.Errorf("%w: payload is not JSON", ErrModelCorrupt)
	}
	head := *e
	head.Payload = json.RawMessage("0")
	data, err := json.Marshal(&head)
	if err != nil {
		return fmt.Errorf("registry: encoding envelope: %w", err)
	}
	// data ends in `0}`, the placeholder payload and the closing brace.
	data = append(data[:len(data)-2], e.Payload...)
	return AtomicWriteFile(path, append(data, "}\n"...))
}

// ReadEnvelopeFile loads and verifies an envelope written by
// WriteEnvelopeFile. Damage surfaces as ErrModelCorrupt /
// ErrModelVersion, never a partial document.
func ReadEnvelopeFile(path string) (*Envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%w: decoding %s: %v", ErrModelCorrupt, filepath.Base(path), err)
	}
	if err := e.Verify(); err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return &e, nil
}

// AtomicWriteFile writes data to path with full crash safety: the
// bytes go to a unique temp file in the same directory, are fsynced to
// stable storage, and only then renamed over path; the directory entry
// is fsynced last so the rename itself survives a crash. At every
// instant path either holds its previous complete content or the new
// complete content — a reader (or a reboot) can never observe a torn
// file, and a failed write leaves no temp litter behind.
func AtomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("registry: creating temp file in %s: %w", dir, err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("registry: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("registry: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("registry: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("registry: renaming %s over %s: %w", tmpName, path, err)
	}
	// Fsync the directory so the rename is durable; best-effort on
	// filesystems that refuse directory fsync.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
