package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// TestReadBody: a body comes back whole however it arrives, in pieces
// and across chunk growth; one cut short is an error, wherever the cut
// falls.
func TestReadBody(t *testing.T) {
	for _, n := range []int{0, 1, firstChunk, firstChunk + 1, 5*firstChunk + 3} {
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i)
		}
		got, err := ReadBody(bufio.NewReader(iotest.HalfReader(bytes.NewReader(want))), n)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d-byte body: got %d bytes, %v", n, len(got), err)
		}
		for _, sent := range []int{0, 1, firstChunk, n - 1} {
			if sent < 0 || sent >= n {
				continue
			}
			wantErr := io.ErrUnexpectedEOF
			if sent == 0 {
				wantErr = io.EOF
			}
			if _, err := ReadBody(bufio.NewReader(bytes.NewReader(want[:sent])), n); err != wantErr {
				t.Fatalf("%d-byte body cut after %d bytes: %v, want %v", n, sent, err, wantErr)
			}
		}
	}
}

// TestReadBodyBufferedIsOneAllocation: a body already in the reader's
// buffer costs one allocation, whatever its size.
func TestReadBodyBufferedIsOneAllocation(t *testing.T) {
	body := make([]byte, 3*firstChunk)
	src := bytes.NewReader(body)
	r := bufio.NewReaderSize(src, len(body))
	if allocs := testing.AllocsPerRun(100, func() {
		src.Reset(body)
		r.Reset(src)
		if _, err := r.Peek(len(body)); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBody(r, len(body)); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("a buffered body took %v allocations, want 1", allocs)
	}
}
