package wal

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// buildFrames encodes payloads as a valid frame sequence starting at LSN
// first — the same layout Log.append produces.
func buildFrames(first uint64, payloads ...[]byte) []byte {
	var out []byte
	lsn := first
	for _, p := range payloads {
		frame := make([]byte, frameHeader+len(p))
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint64(frame[8:16], lsn)
		copy(frame[frameHeader:], p)
		binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[8:], castagnoli))
		out = append(out, frame...)
		lsn++
	}
	return out
}

// walkAll is walkFrames accepting every frame: the accepted length, the
// number of frames in it, and the fault that ended the walk, if any.
func walkAll(data []byte, first uint64) (valid int, count uint64, fault error) {
	valid, fault = walkFrames(data, first, func(uint64, []byte, []byte) error {
		count++
		return nil
	})
	return valid, count, fault
}

// FuzzFrameScan holds walkFrames to its contract on arbitrary bytes: the
// valid prefix it reports must itself scan identically (idempotence), every
// frame inside it must verify, it reports a fault exactly when it stops
// short, and the scan must never read past the data or panic. Torn-tail
// truncation is built on exactly these properties. The follower's
// DecodeFrames must agree with it: it succeeds only on bytes the walk
// accepts whole, with one record per frame, so it fails wherever the walk
// stops short.
func FuzzFrameScan(f *testing.F) {
	f.Add([]byte{}, uint64(1))
	f.Add(buildFrames(1, []byte("sdelete /site/people")), uint64(1))
	f.Add(buildFrames(7, []byte("a"), []byte(""), []byte("bb")), uint64(7))
	// Seeds for the failure paths: wrong start LSN, truncated tail, bad CRC.
	f.Add(buildFrames(3, []byte("x")), uint64(1))
	f.Add(buildFrames(1, []byte("x"), []byte("y"))[:frameHeader+3], uint64(1))
	bad := buildFrames(1, []byte("corrupt-me"))
	bad[frameHeader] ^= 0xFF
	f.Add(bad, uint64(1))
	huge := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(huge[0:4], uint32(maxPayload+1))
	f.Add(huge, uint64(1))

	f.Fuzz(func(t *testing.T, data []byte, first uint64) {
		valid, count, fault := walkAll(data, first)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid %d out of range [0,%d]", valid, len(data))
		}
		if (fault == nil) != (valid == len(data)) {
			t.Fatalf("accepted %d of %d bytes, fault %v", valid, len(data), fault)
		}
		v2, c2, f2 := walkAll(data[:valid], first)
		if v2 != valid || c2 != count || f2 != nil {
			t.Fatalf("rescan of valid prefix: (%d,%d,%v) != (%d,%d)", v2, c2, f2, valid, count)
		}
		recs, err := DecodeFrames(data, first)
		if err == nil && (valid != len(data) || uint64(len(recs)) != count) {
			t.Fatalf("DecodeFrames decoded %d records, the walk accepted %d of %d bytes in %d frames", len(recs), valid, len(data), count)
		}
		// Walk the accepted prefix: frames must be well formed, contiguous
		// from first, and exactly fill it.
		pos, lsn := 0, first
		for n := uint64(0); n < count; n++ {
			rest := data[pos:valid]
			if len(rest) < frameHeader {
				t.Fatalf("frame %d: header past valid prefix", n)
			}
			length := int(binary.LittleEndian.Uint32(rest[0:4]))
			if length > maxPayload || frameHeader+length > len(rest) {
				t.Fatalf("frame %d: length %d overruns valid prefix", n, length)
			}
			if got := binary.LittleEndian.Uint64(rest[8:16]); got != lsn {
				t.Fatalf("frame %d: lsn %d want %d", n, got, lsn)
			}
			sum := binary.LittleEndian.Uint32(rest[4:8])
			if crc32.Checksum(rest[8:frameHeader+length], castagnoli) != sum {
				t.Fatalf("frame %d: checksum accepted but does not verify", n)
			}
			pos += frameHeader + length
			lsn++
		}
		if pos != valid {
			t.Fatalf("frames cover %d bytes but %d were accepted", pos, valid)
		}
	})
}

// FuzzFrameRoundTrip: any payload split encoded with the real framing must
// scan back completely, with one frame per payload.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte("sdelete /site"), []byte("vQ1\x00//person{ID}"), uint64(1))
	f.Add([]byte{}, []byte{0xff, 0x00}, uint64(1<<40))
	f.Fuzz(func(t *testing.T, a, b []byte, first uint64) {
		if first == 0 || first > 1<<62 {
			first = 1
		}
		data := buildFrames(first, a, b)
		valid, count, fault := walkAll(data, first)
		if valid != len(data) || count != 2 || fault != nil {
			t.Fatalf("round trip: valid %d/%d, count %d, fault %v", valid, len(data), count, fault)
		}
		// A flipped byte anywhere must cut the scan at or before the frame
		// containing it — never extend it.
		if len(data) > 0 {
			mut := append([]byte(nil), data...)
			mut[int(first)%len(mut)] ^= 0x01
			v, c, _ := walkAll(mut, first)
			if v > valid || c > count {
				t.Fatalf("corruption extended the scan: (%d,%d) > (%d,%d)", v, c, valid, count)
			}
		}
	})
}
