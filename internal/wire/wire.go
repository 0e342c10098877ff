// Package wire holds what the MQTT and RPC decoders share: reading a
// body whose length a peer declared, without trusting that length.
package wire

import (
	"bufio"
	"io"
)

// firstChunk is the most ReadBody allocates before any byte of a body
// that is not yet buffered has arrived.
const firstChunk = 64 << 10

// ReadBody reads the n bytes of a body from r. Its buffer grows only as
// bytes arrive — doubling, from what r already holds or firstChunk — so
// a peer that declares a length and sends less makes the reader
// allocate in proportion to what it sent, not to what it declared. A
// body that is already buffered, or no longer than firstChunk, costs
// one allocation.
func ReadBody(r *bufio.Reader, n int) ([]byte, error) {
	body := make([]byte, min(n, max(r.Buffered(), firstChunk)))
	got := 0
	for {
		m, err := io.ReadFull(r, body[got:])
		got += m
		if err == io.EOF && got > 0 {
			err = io.ErrUnexpectedEOF // torn at a chunk boundary
		}
		if err != nil {
			return nil, err
		}
		if got == n {
			return body, nil
		}
		grown := make([]byte, min(n, 2*len(body)))
		copy(grown, body)
		body = grown
	}
}
