package obs

import "testing"

// TestKindVocabularyIsASet asserts the registered vocabulary has no
// duplicate values (the obscomplete analyzer enforces the same on the
// constant block itself).
func TestKindVocabularyIsASet(t *testing.T) {
	seen := make(map[string]bool)
	for _, k := range allKinds {
		if k == "" {
			t.Fatalf("empty kind in vocabulary")
		}
		if seen[k] {
			t.Fatalf("kind %q registered twice", k)
		}
		seen[k] = true
	}
}
