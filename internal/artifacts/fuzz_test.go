package artifacts

import (
	"reflect"
	"testing"

	"ispy/internal/sim"
	"ispy/internal/traceio"
)

// FuzzParseEntry feeds arbitrary bytes to the container parser, which reads
// whatever a file on disk holds: it must never panic, and the sections of
// anything it accepts must come back unchanged from a version-2 entry
// encodeEntry lays out around them. Seeded with an intact entry of each
// version. Run continuously with `go test -fuzz=FuzzParseEntry
// ./internal/artifacts`; `make check` runs a short pass.
func FuzzParseEntry(f *testing.F) {
	k := statsKey("base")
	stats := traceio.AppendStats(nil, &sim.Stats{Cycles: 4242, BaseInstrs: 999, L1IMisses: 7})
	f.Add(v1Entry(k, stats))
	f.Add(encodeEntry(k, raw(stats)))
	f.Add(encodeEntry(k, raw(stats), raw(nil)))
	f.Fuzz(func(t *testing.T, data []byte) {
		sections, ok := parseEntry(data, k.buf)
		if !ok {
			return
		}
		enc := make([]section, len(sections))
		for i, s := range sections {
			enc[i] = raw(s)
		}
		again, ok := parseEntry(encodeEntry(k, enc...), k.buf)
		if !ok || !reflect.DeepEqual(again, sections) {
			t.Fatalf("re-encoding %d accepted sections: ok %v, sections equal %v", len(sections), ok, reflect.DeepEqual(again, sections))
		}
	})
}
