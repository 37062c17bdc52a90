package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// The golden oracle is only as trustworthy as its immutability: the
// reference kernels were frozen when the fast path split off, and every
// golden-equivalence result since implicitly cites that frozen text. This
// guard stops them from changing unnoticed at all; since their bytes cannot
// change, neither can what they reference, so a kernel cannot start calling
// the fast-path code it checks without an edit that fails here first.
var frozenKernels = map[string]string{
	"reference.go":          "33efc2996880223f04cd6b9b02b57ffe32314f7b3aea2ecdbe66cb9c2c3fd108",
	"../cache/reference.go": "4e3841979ee06dc37f340790c119cffa29cbfba5f057e63998993797821d3c24",
}

func TestReferenceKernelsUnchanged(t *testing.T) {
	for rel, want := range frozenKernels {
		data, err := os.ReadFile(filepath.FromSlash(rel))
		if err != nil {
			t.Fatalf("reading frozen kernel %s: %v", rel, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s has changed (sha256 %s, pinned %s).\n"+
				"This file is the golden oracle: the fast-path simulator is only correct "+
				"relative to it. The reference kernels must not call code from plan.go, "+
				"mask.go or cache.go, beyond the one AsMap adapter they already use. "+
				"If you meant to update the golden oracle deliberately, "+
				"re-run the golden-equivalence suite, justify the change in the commit "+
				"message, and update the pinned hash here. If you did not mean to touch "+
				"it, revert.", rel, got, want)
		}
	}
}
