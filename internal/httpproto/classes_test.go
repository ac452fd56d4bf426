package httpproto

import (
	"strings"
	"testing"
)

// TestByteClasses runs every byte through each class table and checks it
// against the predicate the reference parser (parseRequestOracle) applies
// to that byte: isToken for the method, the two OWS bytes trimOWS trims,
// the bytes that escape or split the target ('%', '?', '/'), the bytes
// that end a header name (':', SP, HTAB, CR), and canonical's notion of
// letter case. LF, which ends a line only after a
// CR, must be in no class that ends a run.
func TestByteClasses(t *testing.T) {
	for c := 0; c < 256; c++ {
		b := byte(c)
		k := byteClass[b]
		for _, cl := range []struct {
			name string
			bit  uint8
			want bool
		}{
			{"tchar", cTchar, isToken(string([]byte{b}))},
			{"OWS", cOWS, b == ' ' || b == '\t'},
			{"path stop", cPathStop, strings.IndexByte("%?/", b) >= 0},
			{"name stop", cNameStop, strings.IndexByte(":\r \t", b) >= 0},
			{"upper", cUpper, 'A' <= b && b <= 'Z'},
			{"lower", cLower, 'a' <= b && b <= 'z'},
		} {
			if got := k&cl.bit != 0; got != cl.want {
				t.Errorf("byte %#02x: %s class = %v, want %v", b, cl.name, got, cl.want)
			}
		}
		want := b
		if 'A' <= b && b <= 'Z' {
			want = b + 'a' - 'A'
		}
		if lower[b] != want {
			t.Errorf("byte %#02x: lower = %#02x, want %#02x", b, lower[b], want)
		}
	}
	if byteClass['\n'] != 0 {
		t.Errorf("LF has classes %#08b, want none", byteClass['\n'])
	}
}

// TestTrackedFieldMatchesCanonical checks the length-and-fold match of
// tracked names against canonical: a name is tracked exactly when its
// canonical form is a tracked key, in every letter case, and a byte that
// folds like '-' under a bare case bit (CR) is no dash.
func TestTrackedFieldMatchesCanonical(t *testing.T) {
	names := []string{"Host", "Dates", "Rang", "Content-Type", "If-Unmodified-Since", "Content\rLength", "Content_Length", "Transfer-Encodinf"}
	for _, key := range trackedKeys {
		names = append(names, key, strings.ToLower(key), strings.ToUpper(key), strings.ReplaceAll(key, "-", "\r"))
	}
	for _, name := range names {
		want := Field(0)
		for i, key := range trackedKeys {
			if canonical(name) == key {
				want = 1 << i
			}
		}
		if got := trackedField(name); got != want {
			t.Errorf("trackedField(%q) = %#x, want %#x", name, got, want)
		}
	}
}
