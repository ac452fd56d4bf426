// Package copsftp is COPS-FTP: the paper's event-driven FTP server built
// on the N-Server framework (Table 3's transformation of Apache FTPServer
// onto the event-driven architecture). The control connection runs through
// the N-Server pipeline with the ftpproto codec and synchronous completion
// events (COPS-FTP's O4 setting); data transfers run on helper goroutines,
// matching the role the reused Apache FTPServer transfer code played in
// the paper's port.
package copsftp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/events"
	"repro/internal/ftpproto"
	"repro/internal/logging"
	"repro/internal/nserver"
	"repro/internal/options"
)

// Config configures a COPS-FTP server.
type Config struct {
	// Root is the directory exported over FTP. Required.
	Root string
	// Options is the template option assignment; zero value means the
	// paper's COPS-FTP preset (options.COPSFTP()).
	Options *options.Options
	// Users authenticates logins; nil means anonymous-only.
	Users *ftpproto.UserStore
	// ReadOnly refuses STOR/DELE/MKD/RMD/RNTO when set.
	ReadOnly bool
	// DataTimeout bounds waiting for a data connection. Default 10s.
	DataTimeout time.Duration
	// Trace receives the debug trace in Debug mode.
	Trace *logging.Trace
}

// Server is a running COPS-FTP instance.
type Server struct {
	ns          *nserver.Server
	root        string
	users       *ftpproto.UserStore
	readOnly    bool
	dataTimeout time.Duration
	// largeFile is the RETR streaming threshold: files of at least this
	// many bytes are sent chunk by chunk from an open descriptor instead
	// of being read whole into memory. 0 disables the path.
	largeFile int64
}

// session is the per-control-connection state (stored as Conn user data).
type session struct {
	mu         sync.Mutex
	user       string
	authed     bool
	cwd        string
	renameFrom string
	// pasv is the passive-mode data listener awaiting one connection.
	pasv net.Listener
	// portAddr is the active-mode peer data endpoint from PORT.
	portAddr string
}

// New assembles a COPS-FTP server.
func New(cfg Config) (*Server, error) {
	if cfg.Root == "" {
		return nil, errors.New("copsftp: Root required")
	}
	root, err := filepath.Abs(cfg.Root)
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(root); err != nil || !fi.IsDir() {
		return nil, fmt.Errorf("copsftp: Root %q is not a directory", root)
	}
	opts := options.COPSFTP()
	if cfg.Options != nil {
		opts = *cfg.Options
	}
	users := cfg.Users
	if users == nil {
		users = ftpproto.NewUserStore(true)
	}
	dt := cfg.DataTimeout
	if dt <= 0 {
		dt = 10 * time.Second
	}
	s := &Server{root: root, users: users, readOnly: cfg.ReadOnly, dataTimeout: dt, largeFile: opts.LargeFileThreshold}
	ns, err := nserver.New(nserver.Config{
		Options: opts,
		App: nserver.AppFuncs{
			Connect: s.onConnect,
			Request: s.handle,
			Close:   s.onClose,
		},
		Codec: ftpproto.Codec{},
		Trace: cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	s.ns = ns
	return s, nil
}

// Framework returns the underlying N-Server.
func (s *Server) Framework() *nserver.Server { return s.ns }

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error { return s.ns.ListenAndServe(addr) }

// Shutdown stops the server.
func (s *Server) Shutdown() { s.ns.Shutdown() }

// Addr returns the bound control address once serving.
func (s *Server) Addr() string {
	if a := s.ns.Addr(); a != nil {
		return a.String()
	}
	return ""
}

func (s *Server) onConnect(c *nserver.Conn) {
	c.SetUserData(&session{cwd: "/"})
	_ = c.Reply(ftpproto.NewReply(220, ""))
}

func (s *Server) onClose(c *nserver.Conn, err error) {
	if sess, ok := c.UserData().(*session); ok {
		sess.mu.Lock()
		if sess.pasv != nil {
			sess.pasv.Close()
			sess.pasv = nil
		}
		sess.mu.Unlock()
	}
}

// handle is the Handle Request hook: one control-connection command.
func (s *Server) handle(c *nserver.Conn, req any) {
	cmd, ok := req.(*ftpproto.Command)
	if !ok {
		_ = c.Reply(ftpproto.NewReply(500, ""))
		return
	}
	sess := c.UserData().(*session)
	// Pre-login commands.
	switch cmd.Name {
	case "USER":
		s.cmdUser(c, sess, cmd.Arg)
		return
	case "PASS":
		s.cmdPass(c, sess, cmd.Arg)
		return
	case "QUIT":
		_ = c.Reply(ftpproto.NewReply(221, ""))
		c.Close()
		return
	case "NOOP":
		_ = c.Reply(ftpproto.NewReply(200, ""))
		return
	case "SYST":
		_ = c.Reply(ftpproto.NewReply(215, ""))
		return
	case "FEAT":
		_ = c.Reply(&ftpproto.Reply{Code: 211, Text: "Features:", Lines: []string{"PASV", "SIZE", "UTF8"}})
		return
	}
	sess.mu.Lock()
	authed := sess.authed
	sess.mu.Unlock()
	if !authed {
		_ = c.Reply(ftpproto.NewReply(530, ""))
		return
	}
	switch cmd.Name {
	case "TYPE":
		switch strings.ToUpper(cmd.Arg) {
		case "A", "I", "L 8":
			_ = c.Reply(ftpproto.NewReply(200, "Type set."))
		default:
			_ = c.Reply(ftpproto.NewReply(501, ""))
		}
	case "MODE", "STRU":
		_ = c.Reply(ftpproto.NewReply(200, ""))
	case "PWD":
		sess.mu.Lock()
		cwd := sess.cwd
		sess.mu.Unlock()
		_ = c.Reply(ftpproto.NewReply(257, fmt.Sprintf("%q is the current directory.", cwd)))
	case "CWD":
		s.cmdCwd(c, sess, cmd.Arg)
	case "CDUP":
		s.cmdCwd(c, sess, "..")
	case "PASV":
		s.cmdPasv(c, sess)
	case "PORT":
		s.cmdPort(c, sess, cmd.Arg)
	case "LIST", "NLST":
		s.cmdList(c, sess, cmd.Arg, cmd.Name == "NLST")
	case "RETR":
		s.cmdRetr(c, sess, cmd.Arg)
	case "STOR":
		s.cmdStor(c, sess, cmd.Arg)
	case "SIZE":
		s.cmdSize(c, sess, cmd.Arg)
	case "DELE":
		s.cmdDele(c, sess, cmd.Arg)
	case "MKD":
		s.cmdMkd(c, sess, cmd.Arg)
	case "RMD":
		s.cmdRmd(c, sess, cmd.Arg)
	case "RNFR":
		s.cmdRnfr(c, sess, cmd.Arg)
	case "RNTO":
		s.cmdRnto(c, sess, cmd.Arg)
	case "ABOR":
		_ = c.Reply(ftpproto.NewReply(226, "Abort processed."))
	default:
		_ = c.Reply(ftpproto.NewReply(502, ""))
	}
}

func (s *Server) cmdUser(c *nserver.Conn, sess *session, user string) {
	if user == "" {
		_ = c.Reply(ftpproto.NewReply(501, ""))
		return
	}
	sess.mu.Lock()
	sess.user = user
	sess.authed = false
	sess.mu.Unlock()
	if s.users.Known(user) {
		_ = c.Reply(ftpproto.NewReply(331, ""))
	} else {
		_ = c.Reply(ftpproto.NewReply(530, "User unknown."))
	}
}

func (s *Server) cmdPass(c *nserver.Conn, sess *session, pass string) {
	sess.mu.Lock()
	user := sess.user
	sess.mu.Unlock()
	if user == "" {
		_ = c.Reply(ftpproto.NewReply(503, "Login with USER first."))
		return
	}
	if s.users.Authenticate(user, pass) {
		sess.mu.Lock()
		sess.authed = true
		sess.mu.Unlock()
		_ = c.Reply(ftpproto.NewReply(230, ""))
	} else {
		_ = c.Reply(ftpproto.NewReply(530, ""))
	}
}

func (s *Server) cmdCwd(c *nserver.Conn, sess *session, arg string) {
	sess.mu.Lock()
	target := ftpproto.ResolvePath(sess.cwd, arg)
	sess.mu.Unlock()
	full, err := s.realPath(target)
	if err != nil {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	if fi, err := os.Stat(full); err != nil || !fi.IsDir() {
		_ = c.Reply(ftpproto.NewReply(550, "Not a directory."))
		return
	}
	sess.mu.Lock()
	sess.cwd = target
	sess.mu.Unlock()
	_ = c.Reply(ftpproto.NewReply(250, ""))
}

func (s *Server) cmdPasv(c *nserver.Conn, sess *session) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = c.Reply(ftpproto.NewReply(425, ""))
		return
	}
	sess.mu.Lock()
	if sess.pasv != nil {
		sess.pasv.Close()
	}
	sess.pasv = ln
	sess.portAddr = ""
	sess.mu.Unlock()
	addr := ln.Addr().(*net.TCPAddr)
	_ = c.Reply(ftpproto.NewReply(227, "Entering Passive Mode "+
		ftpproto.FormatPasv(addr.IP, addr.Port)))
}

func (s *Server) cmdPort(c *nserver.Conn, sess *session, arg string) {
	host, port, err := ftpproto.ParsePortArg(arg)
	if err != nil {
		_ = c.Reply(ftpproto.NewReply(501, ""))
		return
	}
	sess.mu.Lock()
	if sess.pasv != nil {
		sess.pasv.Close()
		sess.pasv = nil
	}
	sess.portAddr = fmt.Sprintf("%s:%d", host, port)
	sess.mu.Unlock()
	_ = c.Reply(ftpproto.NewReply(200, ""))
}

// openData establishes the data connection for one transfer.
func (s *Server) openData(sess *session) (net.Conn, error) {
	sess.mu.Lock()
	ln := sess.pasv
	portAddr := sess.portAddr
	sess.pasv = nil
	sess.mu.Unlock()
	if ln != nil {
		defer ln.Close()
		if tl, ok := ln.(*net.TCPListener); ok {
			_ = tl.SetDeadline(time.Now().Add(s.dataTimeout))
		}
		return ln.Accept()
	}
	if portAddr != "" {
		return net.DialTimeout("tcp", portAddr, s.dataTimeout)
	}
	return nil, errors.New("no data connection arranged")
}

func (s *Server) cmdList(c *nserver.Conn, sess *session, arg string, namesOnly bool) {
	sess.mu.Lock()
	target := ftpproto.ResolvePath(sess.cwd, arg)
	sess.mu.Unlock()
	full, err := s.realPath(target)
	if err != nil {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	entries, err := os.ReadDir(full)
	if err != nil {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	var b strings.Builder
	for _, e := range entries {
		if namesOnly {
			fmt.Fprintf(&b, "%s\r\n", e.Name())
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		kind := "-"
		if fi.IsDir() {
			kind = "d"
		}
		fmt.Fprintf(&b, "%srw-r--r-- 1 ftp ftp %12d %s %s\r\n",
			kind, fi.Size(), fi.ModTime().Format("Jan _2 15:04"), e.Name())
	}
	_ = c.Reply(ftpproto.NewReply(150, ""))
	go s.transfer(c.Reserve(), sess, func(dc net.Conn) error {
		n, err := dc.Write([]byte(b.String()))
		// Data-connection egress bypasses Conn.Send; count it here so the
		// O11 byte totals cover every socket, not just the control channel.
		c.Profile().BytesSent(n)
		return err
	})
}

func (s *Server) cmdRetr(c *nserver.Conn, sess *session, arg string) {
	if arg == "" {
		_ = c.Reply(ftpproto.NewReply(501, ""))
		return
	}
	sess.mu.Lock()
	target := ftpproto.ResolvePath(sess.cwd, arg)
	sess.mu.Unlock()
	full, err := s.realPath(target)
	if err != nil {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	fi, err := os.Stat(full)
	if err != nil || fi.IsDir() {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	_ = c.Reply(ftpproto.NewReply(150, ""))
	if s.largeFile > 0 && fi.Size() >= s.largeFile {
		// Large-file path: the descriptor comes back from the emulated
		// asynchronous open and the body streams to the data connection
		// through a pooled buffer, never held whole in memory.
		go s.transfer(c.Reserve(), sess, func(dc net.Conn) error {
			done := make(chan error, 1)
			_, err := s.ns.AIO().Open(full, nil, c.Priority(),
				func(_ events.Token, f *os.File, _ os.FileInfo, oerr error) {
					if oerr != nil {
						done <- oerr
						return
					}
					defer f.Close()
					lease := bufpool.Get(32 << 10)
					defer lease.Release()
					buf := lease.Bytes()
					for {
						n, rerr := f.Read(buf)
						if n > 0 {
							nw, werr := dc.Write(buf[:n])
							c.Profile().BytesSent(nw)
							c.Profile().BytesStreamed(nw)
							c.Profile().StreamFallbackChunk()
							if werr != nil {
								done <- werr
								return
							}
						}
						if rerr != nil {
							if rerr == io.EOF {
								rerr = nil
							}
							done <- rerr
							return
						}
					}
				})
			if err != nil {
				return err
			}
			return <-done
		})
		return
	}
	// The file content is fetched through the framework's emulated async
	// I/O (cache-aware when O6 is on); the data-connection write happens
	// on the transfer helper.
	go s.transfer(c.Reserve(), sess, func(dc net.Conn) error {
		done := make(chan error, 1)
		_, err := s.ns.AIO().ReadFile(full, nil, c.Priority(),
			func(_ events.Token, data []byte, rerr error) {
				if rerr != nil {
					done <- rerr
					return
				}
				nw, werr := dc.Write(data)
				c.Profile().BytesSent(nw)
				done <- werr
			})
		if err != nil {
			return err
		}
		return <-done
	})
}

func (s *Server) cmdStor(c *nserver.Conn, sess *session, arg string) {
	if s.readOnly {
		_ = c.Reply(ftpproto.NewReply(550, "Server is read-only."))
		return
	}
	if arg == "" {
		_ = c.Reply(ftpproto.NewReply(501, ""))
		return
	}
	sess.mu.Lock()
	target := ftpproto.ResolvePath(sess.cwd, arg)
	sess.mu.Unlock()
	full, err := s.realPath(target)
	if err != nil {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	_ = c.Reply(ftpproto.NewReply(150, ""))
	go s.transfer(c.Reserve(), sess, func(dc net.Conn) error {
		f, err := os.Create(full)
		if err != nil {
			return err
		}
		defer f.Close()
		// A pooled 32 KiB copy buffer instead of a per-transfer allocation.
		// The manual loop (rather than io.CopyBuffer) preserves the FTP
		// semantics that a read error just marks the end of the upload.
		lease := bufpool.Get(32 << 10)
		defer lease.Release()
		buf := lease.Bytes()
		for {
			n, rerr := dc.Read(buf)
			if n > 0 {
				// Data-connection ingress bypasses the framework readLoop;
				// count it toward the O11 bytes-read total.
				c.Profile().BytesRead(n)
				if _, werr := f.Write(buf[:n]); werr != nil {
					return werr
				}
			}
			if rerr != nil {
				// EOF (or peer close) marks the end of the upload.
				return nil
			}
		}
	})
}

// transfer runs one data-connection transfer and fills slot with the
// closing reply. The caller reserves slot on the Handle goroutine (the
// go statement evaluates c.Reserve() there), right after the 150, so a
// command pipelined behind the transfer is answered after its 226, 425
// or 426.
func (s *Server) transfer(slot nserver.Slot, sess *session, f func(net.Conn) error) {
	dc, err := s.openData(sess)
	if err != nil {
		_ = slot.Reply(ftpproto.NewReply(425, ""))
		return
	}
	err = f(dc)
	dc.Close()
	if err != nil {
		_ = slot.Reply(ftpproto.NewReply(426, ""))
		return
	}
	_ = slot.Reply(ftpproto.NewReply(226, ""))
}

func (s *Server) cmdSize(c *nserver.Conn, sess *session, arg string) {
	sess.mu.Lock()
	target := ftpproto.ResolvePath(sess.cwd, arg)
	sess.mu.Unlock()
	full, err := s.realPath(target)
	if err != nil {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	fi, err := os.Stat(full)
	if err != nil || fi.IsDir() {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	_ = c.Reply(ftpproto.NewReply(213, fmt.Sprintf("%d", fi.Size())))
}

func (s *Server) cmdDele(c *nserver.Conn, sess *session, arg string) {
	s.mutate(c, sess, arg, func(full string) error {
		fi, err := os.Stat(full)
		if err != nil || fi.IsDir() {
			return errors.New("not a file")
		}
		return os.Remove(full)
	}, 250)
}

func (s *Server) cmdMkd(c *nserver.Conn, sess *session, arg string) {
	s.mutate(c, sess, arg, func(full string) error {
		return os.Mkdir(full, 0o755)
	}, 257)
}

func (s *Server) cmdRmd(c *nserver.Conn, sess *session, arg string) {
	s.mutate(c, sess, arg, func(full string) error {
		fi, err := os.Stat(full)
		if err != nil || !fi.IsDir() {
			return errors.New("not a directory")
		}
		return os.Remove(full)
	}, 250)
}

func (s *Server) cmdRnfr(c *nserver.Conn, sess *session, arg string) {
	sess.mu.Lock()
	target := ftpproto.ResolvePath(sess.cwd, arg)
	sess.mu.Unlock()
	full, err := s.realPath(target)
	if err != nil {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	if _, err := os.Stat(full); err != nil {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	sess.mu.Lock()
	sess.renameFrom = full
	sess.mu.Unlock()
	_ = c.Reply(ftpproto.NewReply(350, ""))
}

func (s *Server) cmdRnto(c *nserver.Conn, sess *session, arg string) {
	if s.readOnly {
		_ = c.Reply(ftpproto.NewReply(550, "Server is read-only."))
		return
	}
	sess.mu.Lock()
	from := sess.renameFrom
	sess.renameFrom = ""
	target := ftpproto.ResolvePath(sess.cwd, arg)
	sess.mu.Unlock()
	if from == "" {
		_ = c.Reply(ftpproto.NewReply(503, "RNFR required first."))
		return
	}
	full, err := s.realPath(target)
	if err != nil {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	if err := os.Rename(from, full); err != nil {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	_ = c.Reply(ftpproto.NewReply(250, ""))
}

// mutate guards a write operation with the read-only flag and common
// error handling.
func (s *Server) mutate(c *nserver.Conn, sess *session, arg string, op func(string) error, okCode int) {
	if s.readOnly {
		_ = c.Reply(ftpproto.NewReply(550, "Server is read-only."))
		return
	}
	if arg == "" {
		_ = c.Reply(ftpproto.NewReply(501, ""))
		return
	}
	sess.mu.Lock()
	target := ftpproto.ResolvePath(sess.cwd, arg)
	sess.mu.Unlock()
	full, err := s.realPath(target)
	if err != nil {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	if err := op(full); err != nil {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	_ = c.Reply(ftpproto.NewReply(okCode, ""))
}

// realPath maps a cleaned virtual path to the exported directory.
func (s *Server) realPath(virtual string) (string, error) {
	full := filepath.Join(s.root, filepath.FromSlash(virtual))
	if full != s.root && !strings.HasPrefix(full, s.root+string(filepath.Separator)) {
		return "", errors.New("copsftp: path escapes root")
	}
	return full, nil
}
