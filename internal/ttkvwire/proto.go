// Package ttkvwire provides network access to a ttkv.Store: a compact
// RESP-inspired wire protocol, a server that exposes a store over TCP (the
// role Redis played in the paper's deployment), and a client used by the
// loggers and the repair tool.
//
// Requests are arrays of bulk strings; responses are simple strings,
// errors, integers, bulk strings (possibly nil), or arrays, exactly as in
// RESP2. The protocol is self-framing, so values may contain any bytes.
package ttkvwire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Protocol errors.
var (
	ErrProtocol = errors.New("ttkvwire: protocol error")
	// ErrTooLarge guards length prefixes so a corrupt or hostile peer
	// cannot force a giant allocation.
	ErrTooLarge = errors.New("ttkvwire: declared length too large")
)

const (
	maxBulkLen  = 8 << 20
	maxArrayLen = 1 << 20
)

// Kind discriminates wire values.
type Kind uint8

// Wire value kinds.
const (
	KindSimple Kind = iota + 1 // +OK style status line
	KindError                  // -ERR style error line
	KindInt                    // :42
	KindBulk                   // $5\r\nhello
	KindNil                    // $-1
	KindArray                  // *2 ...
)

// Value is one protocol value.
type Value struct {
	Kind  Kind
	Str   string // Simple, Error, Bulk payload
	Int   int64
	Array []Value
}

// Convenience constructors.
func simple(s string) Value   { return Value{Kind: KindSimple, Str: s} }
func errValue(s string) Value { return Value{Kind: KindError, Str: s} }
func intValue(n int64) Value  { return Value{Kind: KindInt, Int: n} }
func bulk(s string) Value     { return Value{Kind: KindBulk, Str: s} }
func nilValue() Value         { return Value{Kind: KindNil} }
func array(vs ...Value) Value { return Value{Kind: KindArray, Array: vs} }
func bulkInt(n int64) Value   { return bulk(strconv.FormatInt(n, 10)) }
func bulkBool(b bool) Value   { return bulk(boolStr(b)) }
func boolStr(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// WriteValue serializes v to w.
func WriteValue(w *bufio.Writer, v Value) error {
	switch v.Kind {
	case KindSimple:
		_, err := fmt.Fprintf(w, "+%s\r\n", oneLine(v.Str))
		return err
	case KindError:
		_, err := fmt.Fprintf(w, "-%s\r\n", oneLine(v.Str))
		return err
	case KindInt:
		_, err := fmt.Fprintf(w, ":%d\r\n", v.Int)
		return err
	case KindBulk:
		if _, err := fmt.Fprintf(w, "$%d\r\n", len(v.Str)); err != nil {
			return err
		}
		if _, err := w.WriteString(v.Str); err != nil {
			return err
		}
		_, err := w.WriteString("\r\n")
		return err
	case KindNil:
		_, err := w.WriteString("$-1\r\n")
		return err
	case KindArray:
		if _, err := fmt.Fprintf(w, "*%d\r\n", len(v.Array)); err != nil {
			return err
		}
		for _, el := range v.Array {
			if err := WriteValue(w, el); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrProtocol, v.Kind)
	}
}

// oneLine turns LFs into spaces, so an error that echoes a client
// argument cannot end its line early and desynchronize the client. A bare
// CR cannot end a line, so every line ReadValue accepts passes unchanged.
func oneLine(s string) string {
	if strings.IndexByte(s, '\n') < 0 {
		return s
	}
	return strings.ReplaceAll(s, "\n", " ")
}

// ReadValue parses one protocol value from r.
func ReadValue(r *bufio.Reader) (Value, error) {
	line, err := readLine(r)
	if err != nil {
		return Value{}, err
	}
	if len(line) == 0 {
		return Value{}, fmt.Errorf("%w: empty line", ErrProtocol)
	}
	payload := line[1:]
	switch line[0] {
	case '+':
		return simple(payload), nil
	case '-':
		return errValue(payload), nil
	case ':':
		n, err := strconv.ParseInt(payload, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad integer %q", ErrProtocol, payload)
		}
		return intValue(n), nil
	case '$':
		n, err := strconv.ParseInt(payload, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad bulk length %q", ErrProtocol, payload)
		}
		if n == -1 {
			return nilValue(), nil
		}
		if n < 0 || n > maxBulkLen {
			return Value{}, fmt.Errorf("%w: bulk length %d", ErrTooLarge, n)
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(r, buf); err != nil {
			return Value{}, fmt.Errorf("%w: short bulk read: %v", ErrProtocol, err)
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return Value{}, fmt.Errorf("%w: bulk not CRLF terminated", ErrProtocol)
		}
		return bulk(string(buf[:n])), nil
	case '*':
		n, err := strconv.ParseInt(payload, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad array length %q", ErrProtocol, payload)
		}
		if n < 0 || n > maxArrayLen {
			return Value{}, fmt.Errorf("%w: array length %d", ErrTooLarge, n)
		}
		out := Value{Kind: KindArray, Array: make([]Value, 0, n)}
		for i := int64(0); i < n; i++ {
			el, err := ReadValue(r)
			if err != nil {
				return Value{}, err
			}
			out.Array = append(out.Array, el)
		}
		return out, nil
	default:
		return Value{}, fmt.Errorf("%w: unexpected type byte %q", ErrProtocol, line[0])
	}
}

// readLine reads a CRLF-terminated line, rejecting bare LF.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return "", fmt.Errorf("%w: line not CRLF terminated", ErrProtocol)
	}
	return line[:len(line)-2], nil
}

// writeCommandBuf serializes a request as an array of bulk strings into w
// without flushing, so callers can pipeline several commands into one
// network write.
func writeCommandBuf(w *bufio.Writer, args ...string) error {
	vs := make([]Value, len(args))
	for i, a := range args {
		vs[i] = bulk(a)
	}
	return WriteValue(w, array(vs...))
}

// writeCommand sends a request as an array of bulk strings.
func writeCommand(w *bufio.Writer, args ...string) error {
	if err := writeCommandBuf(w, args...); err != nil {
		return err
	}
	return w.Flush()
}
