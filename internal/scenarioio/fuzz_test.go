package scenarioio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// pinnedDocument is a scenario document written by an earlier build and
// committed with the workload-check corpus.
const pinnedDocument = "../../workload-checks/ci-smoke/cases/pinned-baseline/scenario.json"

// FuzzDecode feeds arbitrary bytes to the decoder. No input may panic it,
// and an accepted document must reach a fixed point: re-encoding the
// decoded scenario, decoding that and re-encoding again gives the same
// bytes. Seeds are the golden documents and the pinned corpus document.
func FuzzDecode(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range append(seeds, pinnedDocument) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, fp, err := DecodeWithFaults(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := EncodeWithFaults(&first, sc, fp); err != nil {
			t.Fatalf("encoding an accepted document: %v", err)
		}
		sc, fp, err = DecodeWithFaults(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded document: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := EncodeWithFaults(&second, sc, fp); err != nil {
			t.Fatalf("encoding a re-decoded document: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}
