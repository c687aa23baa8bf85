package rart

import (
	"testing"

	"sphinx/internal/wire"
)

// FuzzDecodeNode feeds arbitrary bytes to the inner-node decoder: remote
// reads can observe torn or (via collided hash entries) entirely wrong
// memory, and the decoder must fail cleanly rather than panic.
func FuzzDecodeNode(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, wire.SlotBase))
	n := NewNode(wire.Node16, []byte("seedpref"), 4)
	n.addChildLocal(wire.Slot{Present: true, Leaf: true, KeyByte: 'x', Addr: 64})
	f.Add(n.Encode())
	big := NewNode(wire.Node256, []byte("q"), 1).Encode()
	f.Add(big)
	torn := append([]byte(nil), big...)
	copy(torn[100:], n.Encode())
	f.Add(torn)

	f.Fuzz(func(t *testing.T, data []byte) {
		node, err := Decode(0, data)
		if err != nil {
			return
		}
		// Whatever decoded must be navigable without panics.
		for b := 0; b < 256; b++ {
			node.Child(byte(b))
		}
		node.Children()
		_ = node.Encode()
		MatchPartial(node, []byte("anything"))
		OnPath(node, []byte("anything at all"))
	})
}
