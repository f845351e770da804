package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
)

// The machine the benchmark runs on is a virtual machine on a shared
// host, and two things the program does not control move its times by
// tens of percent from one run to the next:
//
//   - Steal. The hypervisor takes a vCPU away for a while, and every
//     clock in the machine runs on without the program. /proc/stat
//     counts those ticks. A run reads it around the timed pass and each
//     set-up rep, and multiplies each wall time by one minus the share
//     of the machine's ticks stolen meanwhile (see stolenSince). CPU
//     times carry no steal.
//   - Contention. Co-tenants on the same cores, caches and memory slow
//     every instruction, so the same work takes more CPU time. A run
//     times the CPU of a fixed, benchmark-owned reference kernel at
//     evenly spaced points, and multiplies every time by refNominalMS
//     over the kernel's median.
//
// The end-to-end times are reported after both corrections, at
// reference speed; the measured ones are printed on standard error. A
// program that does a third more work still reads a third slower.
//
// The kernel mixes the kinds of work the program does (hash-table
// inserts and lookups over a table of about a megabyte, sorting, a
// dense float convolution, and small round trips over a loopback TCP
// connection to a goroutine that echoes them, which wake a second
// thread the way every request wakes the server), so that contention
// slows it the way it slows the program. It has no pointer chase
// through memory far larger than the caches: such a walk runs up to
// four times slower whenever a co-tenant streams through memory, and
// the program does not. It allocates nothing after it is built: the
// program's heap, which a change to the program can grow or shrink,
// never puts garbage collection into a kernel timing.

// refNominalMS is the kernel's usual CPU time on the reference machine
// (a 2-vCPU Intel Xeon VM, go1.24.0). It is part of the benchmark's
// definition: changing it rescales every time metric.
const refNominalMS = 6.0

// Kernel sizes.
const (
	refTableKeys = 30000
	refKeySpace  = 1 << 17
	refSortLen   = 12000
	refConvA     = 2400
	refConvB     = 160
	refTrips     = 100
	refMsgBytes  = 64
)

// refKernel holds the kernel's preallocated state and its timings:
// the process CPU time of each pass.
type refKernel struct {
	table   map[uint64]float64
	src     []float64
	buf     []float64
	a, b    []float64
	conv    []float64
	sink    float64
	samples []float64
	// conn is the client end of the loopback echo; msg and reply are
	// its buffers. close stops the echo goroutine and waits for it.
	ln         net.Listener
	conn       net.Conn
	msg, reply []byte
	echoed     chan struct{}
}

func newRefKernel() (*refKernel, error) {
	k := &refKernel{
		msg:    make([]byte, refMsgBytes),
		reply:  make([]byte, refMsgBytes),
		echoed: make(chan struct{}),
		table:  make(map[uint64]float64, refTableKeys),
		src:    make([]float64, refSortLen),
		buf:    make([]float64, refSortLen),
		a:      make([]float64, refConvA),
		b:      make([]float64, refConvB),
		conv:   make([]float64, refConvA+refConvB-1),
		// Room for every timing of a run, so that sample never grows it.
		samples: make([]float64, 0, 1024),
	}
	r := &rng{s: 0x7ef}
	for i := range k.src {
		k.src[i] = r.float()
	}
	for i := range k.a {
		k.a[i] = r.float()
	}
	for i := range k.b {
		k.b[i] = r.float()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	k.ln = ln
	go k.echo()
	if k.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		k.close()
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	// One untimed pass grows the table to its working size, so that
	// timed passes reuse its storage.
	if _, err := k.run(); err != nil {
		k.close()
		return nil, err
	}
	return k, nil
}

// echo serves the one connection of the kernel until it closes.
func (k *refKernel) echo() {
	defer close(k.echoed)
	c, err := k.ln.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	buf := make([]byte, refMsgBytes)
	for {
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		if _, err := c.Write(buf); err != nil {
			return
		}
	}
}

// close stops the echo goroutine and waits for it to return.
func (k *refKernel) close() {
	k.ln.Close()
	if k.conn != nil {
		k.conn.Close()
	}
	<-k.echoed
}

// run is one pass of the kernel; it returns a checksum of the work.
func (k *refKernel) run() (float64, error) {
	clear(k.table)
	r := &rng{s: 0x5a17}
	for i := 0; i < refTableKeys; i++ {
		k.table[r.next()%refKeySpace] += float64(i)
	}
	var sum float64
	for i := 0; i < refTableKeys; i++ {
		sum += k.table[r.next()%refKeySpace]
	}
	copy(k.buf, k.src)
	slices.Sort(k.buf)
	clear(k.conv)
	for i, x := range k.a {
		out := k.conv[i : i+len(k.b)]
		for j, y := range k.b {
			out[j] += x * y
		}
	}
	for i := 0; i < refTrips; i++ {
		k.msg[0] = byte(i)
		if _, err := k.conn.Write(k.msg); err != nil {
			return 0, fmt.Errorf("reference kernel: %w", err)
		}
		if _, err := io.ReadFull(k.conn, k.reply); err != nil {
			return 0, fmt.Errorf("reference kernel: %w", err)
		}
		sum += float64(k.reply[0])
	}
	return sum + k.buf[len(k.buf)/2] + k.conv[len(k.conv)/2], nil
}

// sample times reps passes of the kernel, one sample each.
func (k *refKernel) sample(reps int) error {
	for i := 0; i < reps; i++ {
		cpu0 := processCPU()
		sum, err := k.run()
		if err != nil {
			return err
		}
		k.samples = append(k.samples, float64((processCPU()-cpu0).Nanoseconds())/1e6)
		k.sink += sum
	}
	return nil
}

// scale is the contention factor, from measured to reference-speed
// times: the nominal kernel CPU time over the run's median one.
func (k *refKernel) scale() (float64, error) {
	m := median(k.samples)
	if m <= 0 {
		return 0, fmt.Errorf("reference kernel: no timings")
	}
	fmt.Fprintf(os.Stderr, "perfbench: reference kernel median %.3f CPU ms over %d samples (checksum %g); times scaled by %.4f\n",
		m, len(k.samples), k.sink, refNominalMS/m)
	return refNominalMS / m, nil
}

// ticks is a reading of the machine's CPU time from /proc/stat: the
// ticks the hypervisor stole and the total over every state.
type ticks struct{ steal, total float64 }

// readTicks reads /proc/stat; where it cannot, it reads zero, and no
// steal is seen.
func readTicks() ticks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return ticks{}
	}
	var t ticks
	for i := 1; i < 9; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return ticks{}
		}
		t.total += v
	}
	t.steal, _ = strconv.ParseFloat(f[8], 64)
	return t
}

// stolenSince is the share of the machine's ticks stolen since t0. It
// errs low: a vCPU accrues steal only while it has work, and the closed
// loop keeps about one of the two busy. The share of the busy ticks
// instead errs high, because both vCPUs are often stolen at once and
// the program loses that time only once: in runs with a third of the
// busy time stolen it put the p50 15-20% below that of quiet runs. The
// low side never flatters the program.
func (t ticks) stolenSince(t0 ticks) float64 {
	return ratio(t.steal-t0.steal, t.total-t0.total)
}
