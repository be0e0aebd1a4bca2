package store

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// FuzzStoreDecode feeds arbitrary (key, image) pairs to decode, the
// reader every disk Get goes through. The format has one image per
// (key, payload), so an image is well formed for key exactly when it is
// encode(key, p) for the p that follows its header: decode must then
// return exactly p, and miss on anything else, without panicking. The
// seeds are a good image and the three corruptions of
// TestCorruptionIsMissNeverPartial — truncation, a flipped byte and
// trailing garbage — at places in the header and the payload.
func FuzzStoreDecode(f *testing.F) {
	key := "v1|bT8/HCC-DTS-gwb|cilk5-cs|test|0|chaos-lossy-all|1"
	good := encode(key, []byte(`[{"config":"bT8/HCC-DTS-gwb","cycles":34583}]`+"\n"))
	f.Add(key, good)
	f.Add("", encode("", nil))
	for _, n := range []int{0, 5, 12, len(good) - 40, len(good) - 1} {
		f.Add(key, bytes.Clone(good[:n]))
	}
	for _, i := range []int{0, 9, 20, headerLen(key) - 33, headerLen(key) - 1, len(good) - 1} {
		flipped := bytes.Clone(good)
		flipped[i] ^= 0x40
		f.Add(key, flipped)
	}
	f.Add(key, append(bytes.Clone(good), "garbage"...))
	f.Add(key+"x", good)

	f.Fuzz(func(t *testing.T, key string, data []byte) {
		payload, ok := decode(key, data)
		hdr := headerLen(key)
		wellFormed := len(key) > 0 && len(key) <= maxKeyLen && len(data) >= hdr &&
			bytes.Equal(encode(key, data[hdr:]), data)
		switch {
		case ok != wellFormed:
			t.Fatalf("decode ok=%v on an image that is well formed=%v", ok, wellFormed)
		case ok && !bytes.Equal(payload, data[hdr:]):
			t.Fatalf("decode returned %d bytes, want the image's %d-byte payload", len(payload), len(data)-hdr)
		case !ok && payload != nil:
			t.Fatalf("a miss carried %d bytes", len(payload))
		}
	})
}

// headerLen is the length of an entry image's header for key.
func headerLen(key string) int { return len(magic) + 4 + len(key) + 8 + sha256.Size }
