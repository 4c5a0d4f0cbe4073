//go:build !unix

package transport

import (
	"errors"
	"net"
	"syscall"
)

// Off unix a reader cannot issue a socket read itself: it blocks in
// net.Conn.Read holding its chunk (reader.readConn), as a reader of a
// conn with no descriptor does on unix.
func rawConn(net.Conn) syscall.RawConn { return nil }

func sysRead(uintptr, []byte) (int, bool, error) { return 0, false, errors.ErrUnsupported }
