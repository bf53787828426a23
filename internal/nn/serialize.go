package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Checkpoint format: a magic string, a parameter count, then for each
// parameter its name, shape and float32 data, all little-endian. The
// format is self-describing enough to verify a checkpoint matches the
// network it is loaded into.

var checkpointMagic = [8]byte{'g', 'p', 'u', 'c', 'n', 'n', 'c', '1'}

// SaveParams writes the parameters to w, materialising any without storage.
func SaveParams(w io.Writer, params []*Param) error {
	if _, err := w.Write(checkpointMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		p.Materialise()
		if err := writeString(w, p.Name); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(len(p.Shape))); err != nil {
			return err
		}
		for _, d := range p.Shape {
			if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		buf := make([]byte, 4*len(p.W.Data))
		for i, v := range p.W.Data {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// LoadParams reads a checkpoint written by SaveParams into params. The
// parameter names and shapes must match exactly, in order — loading a
// checkpoint into a different architecture is an error, not silent
// corruption. A parameter is materialised only once both check out.
func LoadParams(r io.Reader, params []*Param) error {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("nn: reading checkpoint magic: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("nn: bad checkpoint magic %q", magic)
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return err
	}
	if int(count) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d parameters, network has %d", count, len(params))
	}
	for _, p := range params {
		name, err := readString(r)
		if err != nil {
			return err
		}
		if name != p.Name {
			return fmt.Errorf("nn: checkpoint parameter %q does not match network parameter %q", name, p.Name)
		}
		var rank uint32
		if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
			return err
		}
		if int(rank) != len(p.Shape) {
			return fmt.Errorf("nn: %s rank %d vs %d", name, rank, len(p.Shape))
		}
		for i, want := range p.Shape {
			var d uint32
			if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
				return err
			}
			if int(d) != want {
				return fmt.Errorf("nn: %s dim %d is %d in checkpoint, %d in network", name, i, d, want)
			}
		}
		buf := make([]byte, 4*p.Elems())
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("nn: reading %s data: %w", name, err)
		}
		for i := range p.Materialise().W.Data {
			p.W.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
	}
	return nil
}

// Save writes the network's parameters to w.
func (n *Net) Save(w io.Writer) error { return SaveParams(w, n.Params()) }

// Load reads a checkpoint into the network, which must have declared
// its parameters: one forward pass of either kind is enough.
func (n *Net) Load(r io.Reader) error { return LoadParams(r, n.Params()) }

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("nn: implausible name length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
