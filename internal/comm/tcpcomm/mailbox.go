package tcpcomm

import (
	"time"

	"sdssort/internal/comm"
)

// message is one frame as the readers hand it to the mailbox.
type message struct {
	src  int
	ctx  uint64
	tag  int32
	data []byte
}

// mailbox is comm.Mailbox fed frame by frame: the per-connection readers
// put into it, Recv takes with Config.RecvTimeout, and a source whose
// frames were lost across a reconnect is failed.
type mailbox struct{ *comm.Mailbox }

func newMailbox() *mailbox { return &mailbox{comm.NewMailbox()} }

func (b *mailbox) put(m message) error { return b.Put(m.src, m.ctx, m.tag, m.data) }

func (b *mailbox) take(src int, ctx uint64, tag int32, timeout time.Duration) ([]byte, error) {
	return b.Take(src, ctx, tag, timeout)
}

func (b *mailbox) fail(src int, err error) { b.Fail(src, err) }
