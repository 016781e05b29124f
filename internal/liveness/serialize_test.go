package liveness

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestDetectorRoundTripByteIdentical: serialize → deserialize →
// serialize must reproduce the exact bytes so snapshot checksums stay
// stable when a tenant migrates between cluster nodes.
func TestDetectorRoundTripByteIdentical(t *testing.T) {
	trainW, trainY := synthPair(6, 23)
	det := NewDetector(4)
	det.net.Cfg.Epochs = 2
	if err := det.Train(trainW, 16000, trainY); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := det.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("detector round trip not byte-identical")
	}
}

// TestLoadTypedErrors: the detector document is a ConvNet document, so
// load failures surface the shared ml sentinels and never panic.
func TestLoadTypedErrors(t *testing.T) {
	trainW, trainY := synthPair(6, 29)
	det := NewDetector(5)
	det.net.Cfg.Epochs = 2
	if err := det.Train(trainW, 16000, trainY); err != nil {
		t.Fatal(err)
	}
	var valid bytes.Buffer
	if err := det.Save(&valid); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		doc  string
		want error
	}{
		{"empty", "", ErrCorruptModel},
		{"garbage", "{{{{", ErrCorruptModel},
		{"truncated", valid.String()[:valid.Len()/2], ErrCorruptModel},
		{"wrong_version", `{"version":9,"config":{}}`, ErrUnsupportedVersion},
		{"hostile_dims", `{"version":1,"config":{"InputDim":-1,"ConvChannels":[4],"KernelSize":5,"HiddenDim":8},"convs":[{"w":[],"b":[]}],"dense1":{},"dense2":{}}`, ErrCorruptModel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Load(strings.NewReader(tc.doc))
			if d != nil || !errors.Is(err, tc.want) {
				t.Fatalf("Load(%s) = %v, %v; want errors.Is(err, %v)", tc.name, d, err, tc.want)
			}
		})
	}
}
