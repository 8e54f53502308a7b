package artifact

import (
	"encoding/binary"
	"hash/crc32"
)

// Framed record layout, shared by DMDPRES1, DMDPCKP1, DMDPPLN1 and
// DMDPCKP2 (DMDPTRC1 has its own chunked-CRC header):
//
//	[8] magic+version  [4] CRC32C of the payload  payload
const frameHeaderSize = 12

// frame wraps payload in the record header for magic.
func frame(magic [8]byte, payload []byte) []byte {
	buf := make([]byte, 0, frameHeaderSize+len(payload))
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// unframe returns buf's payload, or false when buf is short, carries
// another magic, or fails its checksum.
func unframe(magic [8]byte, buf []byte) ([]byte, bool) {
	if len(buf) < frameHeaderSize || [8]byte(buf[:8]) != magic {
		return nil, false
	}
	payload := buf[frameHeaderSize:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[8:12]) {
		return nil, false
	}
	return payload, true
}
