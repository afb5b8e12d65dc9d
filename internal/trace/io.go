package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary trace format: an 8-byte header ("PPTR", version, flags) plus a
// little-endian instruction count, followed by fixed-width records. The
// format lets generated workloads be stored and exchanged with external
// tools. A record has an address slot for a Load or Store and a target
// slot for a Branch; Inst keeps either in Addr, and the other slot is
// written as zero and ignored on reading.
const (
	traceMagic   = "PPTR"
	traceVersion = 1
	recordBytes  = 8 + 8 + 8 + 4 + 4 + 1 + 1 + 2 // PC, address, target, Dep1, Dep2, Op, Taken, pad
)

// WriteTo serializes the trace in the binary format.
func (t Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	head := make([]byte, 16)
	copy(head, traceMagic)
	binary.LittleEndian.PutUint32(head[4:], traceVersion)
	binary.LittleEndian.PutUint64(head[8:], uint64(len(t)))
	n, err := bw.Write(head)
	written += int64(n)
	if err != nil {
		return written, err
	}
	rec := make([]byte, recordBytes)
	for _, in := range t {
		addr, target := in.Addr, uint64(0)
		if in.Op == Branch {
			addr, target = 0, in.Addr
		}
		binary.LittleEndian.PutUint64(rec[0:], in.PC)
		binary.LittleEndian.PutUint64(rec[8:], addr)
		binary.LittleEndian.PutUint64(rec[16:], target)
		binary.LittleEndian.PutUint32(rec[24:], uint32(in.Dep1))
		binary.LittleEndian.PutUint32(rec[28:], uint32(in.Dep2))
		rec[32] = byte(in.Op)
		if in.Taken {
			rec[33] = 1
		} else {
			rec[33] = 0
		}
		rec[34], rec[35] = 0, 0
		n, err := bw.Write(rec)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// ReadTrace deserializes a trace written by WriteTo.
func ReadTrace(r io.Reader) (Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 16)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[:4]) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint64(head[8:])
	const maxInsts = 1 << 30
	if count > maxInsts {
		return nil, fmt.Errorf("trace: implausible instruction count %d", count)
	}
	out := make(Trace, count)
	rec := make([]byte, recordBytes)
	for i := range out {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, fmt.Errorf("trace: reading record %d: %w", i, err)
		}
		in := &out[i]
		in.PC = binary.LittleEndian.Uint64(rec[0:])
		in.Dep1 = int32(binary.LittleEndian.Uint32(rec[24:]))
		in.Dep2 = int32(binary.LittleEndian.Uint32(rec[28:]))
		in.Op = Op(rec[32])
		in.Taken = rec[33] != 0
		if in.Op == Branch {
			in.Addr = binary.LittleEndian.Uint64(rec[16:])
		} else {
			in.Addr = binary.LittleEndian.Uint64(rec[8:])
		}
		if in.Op >= numOps {
			return nil, fmt.Errorf("trace: record %d has invalid op %d", i, rec[32])
		}
		if in.Dep1 < 0 || int(in.Dep1) > i || in.Dep2 < 0 || int(in.Dep2) > i {
			return nil, fmt.Errorf("trace: record %d has invalid dependency", i)
		}
	}
	return out, nil
}
