package comm

import "fmt"

// Group returns the communicator's membership as world ranks, indexed by
// communicator rank (a copy; the caller may keep it).
func (c *Comm) Group() []int {
	return append([]int(nil), c.group...)
}

// Name returns the communicator's hierarchical name ("world", or the
// split path that produced it) — useful in traces and error messages.
func (c *Comm) Name() string { return c.name }

// Dup returns a communicator with the same membership but an isolated
// message context, the MPI_Comm_dup idiom: libraries layered over the
// same group can communicate without tag coordination. Dup is collective
// — every member must call it the same number of times.
func (c *Comm) Dup() *Comm {
	c.mu.Lock()
	c.splitSeq++
	seq := c.splitSeq
	c.mu.Unlock()
	name := fmt.Sprintf("%s/%d:dup", c.name, seq)
	return &Comm{
		tr:    c.tr,
		group: append([]int(nil), c.group...),
		rank:  c.rank,
		ctx:   ctxOf(name),
		name:  name,
	}
}
