// Package lossnet is a fixture for the wireframe pass: the header struct is
// a marker-tagged, all-fixed-width datagram header and the bad variants show
// what the pass must catch.
package lossnet

// dgramHeader is a datagram header: marker-detected, every field
// fixed-width, so it produces no findings.
//
//roglint:wire
type dgramHeader struct {
	Kind      uint8
	Flags     uint8
	Seq       uint32
	Ack       uint32
	NackCount uint16
	LostCount uint16
}

// badHeader drifts a sequence field to a platform-width integer — the
// 32-bit-SoC-vs-server encoding mismatch the pass exists to stop.
//
//roglint:wire
type badHeader struct {
	Kind uint8
	Seq  uint // want "platform-width"
}

// nackMsg is detected by its name suffix.
type nackMsg struct {
	Seqs []uint32
	Lost []int // want "platform-width"
}

func encode() []dgramHeader {
	return []dgramHeader{
		{Kind: 1, Seq: 7, Ack: 3},
		{2, 0, 8, 3, 0, 0}, // want "keyed"
	}
}

func use(h dgramHeader, b badHeader, n nackMsg) (uint32, uint, int) {
	return h.Seq, b.Seq, len(n.Lost)
}
