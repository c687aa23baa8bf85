package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// refChecksum is LeafChecksum as its comment defines it, a word at a time
// with no fast path: the stream key‖value zero-padded to whole words, word i
// into lane i mod 4, the lanes folded and mixed.
func refChecksum(key, value []byte) uint64 {
	stream := append(append([]byte(nil), key...), value...)
	for len(stream)%8 != 0 {
		stream = append(stream, 0)
	}
	lane := [4]uint64{sumSeed0 ^ uint64(len(key))<<32 ^ uint64(len(value)), sumSeed1, sumSeed2, sumSeed3}
	for i := 0; i < len(stream); i += 8 {
		lane[i/8%4] = bits.RotateLeft64((lane[i/8%4]^binary.LittleEndian.Uint64(stream[i:]))*sumPrime, 31)
	}
	return Mix64(lane[0] ^ bits.RotateLeft64(lane[1], 16) ^ bits.RotateLeft64(lane[2], 32) ^ bits.RotateLeft64(lane[3], 48))
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

// TestLeafChecksumMatchesDefinition: the four-lane fast path and the partial
// words at the key's end and the value's are the definition's stream, for
// every alignment of the boundary between key and value.
func TestLeafChecksumMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for i := 0; i < 3000; i++ {
		key, value := randomBytes(rng, rng.IntN(80)), randomBytes(rng, rng.IntN(300))
		if got, want := LeafChecksum(key, value), refChecksum(key, value); got != want {
			t.Fatalf("key %d B, value %d B: %#x, definition %#x", len(key), len(value), got, want)
		}
	}
}

// TestLeafChecksumDetectsEveryWordChange: the one-word guarantee. Every bit
// flipped anywhere in the key and value of a leaf with a 1 KiB value, and
// random changes confined to any one of its 8-byte words, fail the decode.
func TestLeafChecksumDetectsEveryWordChange(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 1))
	for _, kl := range []int{8, 13} {
		leaf := EncodeLeaf(StatusIdle, randomBytes(rng, kl), randomBytes(rng, 1024))
		end := LeafHeaderSize + kl + 1024
		for bit := LeafHeaderSize * 8; bit < end*8; bit++ {
			leaf[bit/8] ^= 1 << (bit % 8)
			if _, _, _, ok := DecodeLeaf(leaf); ok {
				t.Fatalf("key %d B: bit %d flipped passed the checksum", kl, bit)
			}
			leaf[bit/8] ^= 1 << (bit % 8)
		}
		for w := LeafHeaderSize; w < end; w += 8 {
			word := leaf[w:min(w+8, end)]
			orig := append([]byte(nil), word...)
			for range 64 {
				for i := range word {
					word[i] ^= byte(rng.Uint32())
				}
				if bytes.Equal(word, orig) {
					continue
				}
				if _, _, _, ok := DecodeLeaf(leaf); ok {
					t.Fatalf("key %d B: word at byte %d changed to %x passed the checksum", kl, w, word)
				}
				copy(word, orig)
			}
		}
		if _, _, _, ok := DecodeLeaf(leaf); !ok {
			t.Fatal("restored leaf fails its checksum")
		}
	}
}

// TestLeafTornLinesRejected: an in-place update rewrites a leaf with one
// WRITE that lands line by line, so a racing READ may return any mix of whole
// 64-byte lines of the old and the new image. Every mix that is neither image
// fails the decode, for 64 B and 1 KiB values.
func TestLeafTornLinesRejected(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	key := []byte("user:0000012345")
	for _, vl := range []int{64, 1024} {
		a := EncodeLeaf(StatusIdle, key, randomBytes(rng, vl))
		b := EncodeLeaf(StatusIdle, key, randomBytes(rng, vl))
		lines := len(a) / LeafUnit
		torn := make([]byte, len(a))
		rejected := 0
		for mask := 0; mask < 1<<lines; mask++ {
			for l := range lines {
				src := a
				if mask>>l&1 != 0 {
					src = b
				}
				copy(torn[l*LeafUnit:(l+1)*LeafUnit], src[l*LeafUnit:])
			}
			if bytes.Equal(torn, a) || bytes.Equal(torn, b) {
				continue
			}
			if _, _, _, ok := DecodeLeaf(torn); ok {
				t.Fatalf("value %d B: mix %b of two images passed the checksum", vl, mask)
			}
			rejected++
		}
		if rejected != 1<<lines-2 {
			t.Errorf("value %d B: %d of %d mixes rejected", vl, rejected, 1<<lines-2)
		}
	}
}

// BenchmarkLeafChecksum: the checksum every leaf encode and decode computes.
func BenchmarkLeafChecksum(b *testing.B) {
	key := []byte("user:0000012345")
	for _, n := range []int{64, 1 << 10, 16 << 10} {
		value := bytes.Repeat([]byte{0xa5}, n)
		b.Run(fmt.Sprintf("value=%dB", n), func(b *testing.B) {
			b.SetBytes(int64(len(key) + n))
			for range b.N {
				LeafChecksum(key, value)
			}
		})
	}
}
