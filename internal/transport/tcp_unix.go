//go:build unix

package transport

import (
	"net"
	"syscall"
)

// rawConn is c's descriptor for the reads a reader issues itself, or
// nil for a conn that has none, whose reader then blocks in c.Read.
func rawConn(c net.Conn) syscall.RawConn {
	if sc, ok := c.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			return raw
		}
	}
	return nil
}

// sysRead is one read(2) on a socket the runtime keeps non-blocking,
// retried on EINTR. again reports that the kernel has nothing yet.
func sysRead(fd uintptr, p []byte) (n int, again bool, err error) {
	for {
		n, err = syscall.Read(int(fd), p)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return 0, true, nil
		case err != nil:
			return 0, false, err
		}
		return n, false, nil
	}
}
