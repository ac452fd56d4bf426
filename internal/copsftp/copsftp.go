// Package copsftp is COPS-FTP: the paper's event-driven FTP server built
// on the N-Server framework (Table 3's transformation of Apache FTPServer
// onto the event-driven architecture). The control connection runs through
// the N-Server pipeline with the ftpproto codec and synchronous completion
// events (COPS-FTP's O4 setting). Each data connection is a framework
// Conn too, without a codec (Fig. 2's O3 = No pipeline): PORT dials it
// through the Acceptor-Connector's Connector, PASV accepts it on a
// one-shot listener, and both attach it to the server, so transfers take
// the same read and write paths, deadlines and metrics as every other
// connection.
package copsftp

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/acceptor"
	"repro/internal/events"
	"repro/internal/ftpproto"
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
}

// Server is a running COPS-FTP instance.
type Server struct {
	ns          *nserver.Server
	root        string
	users       *ftpproto.UserStore
	readOnly    bool
	dataTimeout time.Duration
	// connector dials PORT data connections.
	connector *acceptor.Connector
}

// session is the per-control-connection state (stored as Conn user data).
// The framework serializes the control connection's hooks, so only the
// data-connection arrangement, which transfers also reach from other
// goroutines, needs mu.
type session struct {
	user       string
	authed     bool
	cwd        string
	renameFrom string
	mu         sync.Mutex
	// pasv is the passive-mode data listener, closed with the session.
	pasv net.Listener
	// connect opens the data connection PASV or PORT arranged, for the
	// next transfer (nil when none is arranged).
	connect func(*dataConn)
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
	s := &Server{root: root, users: users, readOnly: cfg.ReadOnly, dataTimeout: dt}
	ns, err := nserver.New(nserver.Config{
		Options: opts,
		App: nserver.AppFuncs{
			Connect: s.onConnect,
			Request: s.handle,
			Close:   s.onClose,
		},
		Codec: ftpproto.Codec{},
	})
	if err != nil {
		return nil, err
	}
	s.ns = ns
	s.connector = ns.Connector(dt)
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
	if !sess.authed {
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
		_ = c.Reply(ftpproto.NewReply(257, fmt.Sprintf("%q is the current directory.", sess.cwd)))
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
	sess.user, sess.authed = user, false
	if s.users.Known(user) {
		_ = c.Reply(ftpproto.NewReply(331, ""))
	} else {
		_ = c.Reply(ftpproto.NewReply(530, "User unknown."))
	}
}

func (s *Server) cmdPass(c *nserver.Conn, sess *session, pass string) {
	if sess.user == "" {
		_ = c.Reply(ftpproto.NewReply(503, "Login with USER first."))
		return
	}
	if s.users.Authenticate(sess.user, pass) {
		sess.authed = true
		_ = c.Reply(ftpproto.NewReply(230, ""))
	} else {
		_ = c.Reply(ftpproto.NewReply(530, ""))
	}
}

func (s *Server) cmdCwd(c *nserver.Conn, sess *session, arg string) {
	target := ftpproto.ResolvePath(sess.cwd, arg)
	full, ok := s.realPath(target)
	if !ok {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	if fi, err := os.Stat(full); err != nil || !fi.IsDir() {
		_ = c.Reply(ftpproto.NewReply(550, "Not a directory."))
		return
	}
	sess.cwd = target
	_ = c.Reply(ftpproto.NewReply(250, ""))
}

// cmdPasv listens for the data connection on the control connection's
// local address, the one the client reached, and advertises it.
func (s *Server) cmdPasv(c *nserver.Conn, sess *session) {
	host, _, _ := net.SplitHostPort(c.LocalAddr().String())
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		_ = c.Reply(ftpproto.NewReply(425, ""))
		return
	}
	sess.mu.Lock()
	if sess.pasv != nil {
		sess.pasv.Close()
	}
	sess.pasv = ln
	sess.connect = func(x *dataConn) { go s.acceptData(ln, x) }
	sess.mu.Unlock()
	addr := ln.Addr().(*net.TCPAddr)
	_ = c.Reply(ftpproto.NewReply(227, "Entering Passive Mode "+
		ftpproto.FormatPasv(addr.IP, addr.Port)))
}

// cmdPort arranges an active-mode data connection. It refuses any host
// but the control connection's peer, so the server cannot be made to
// connect to a third party (the FTP bounce attack, RFC 2577 §3).
func (s *Server) cmdPort(c *nserver.Conn, sess *session, arg string) {
	host, port, err := ftpproto.ParsePortArg(arg)
	if err != nil {
		_ = c.Reply(ftpproto.NewReply(501, ""))
		return
	}
	peer, _, _ := net.SplitHostPort(c.RemoteAddr().String())
	if !net.ParseIP(host).Equal(net.ParseIP(peer)) {
		_ = c.Reply(ftpproto.NewReply(504, "PORT host must be the client's own address."))
		return
	}
	addr := net.JoinHostPort(host, strconv.Itoa(port))
	sess.mu.Lock()
	if sess.pasv != nil {
		sess.pasv.Close()
		sess.pasv = nil
	}
	sess.connect = func(x *dataConn) {
		s.connector.Connect("tcp", addr, nil, func(_ events.Token, res any, err error) {
			nc, _ := res.(net.Conn)
			s.attachData(nc, err, x)
		})
	}
	sess.mu.Unlock()
	_ = c.Reply(ftpproto.NewReply(200, ""))
}

// startData opens the data connection the session arranged for one
// transfer; without one the transfer fails with 425.
func (s *Server) startData(sess *session, x *dataConn) {
	sess.mu.Lock()
	connect := sess.connect
	sess.connect = nil
	sess.mu.Unlock()
	if connect == nil {
		x.fail()
		return
	}
	connect(x)
}

// acceptData takes PASV's one data connection, waiting at most
// DataTimeout.
func (s *Server) acceptData(ln net.Listener, x *dataConn) {
	_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(s.dataTimeout))
	nc, err := ln.Accept()
	ln.Close()
	s.attachData(nc, err, x)
}

// attachData attaches an opened data connection to the framework as a
// Conn running x; a connection that did not open fails x with 425.
func (s *Server) attachData(nc net.Conn, err error, x *dataConn) {
	if err == nil {
		err = s.ns.Attach(nc, x)
	}
	if err != nil {
		x.fail()
	}
}

func (s *Server) cmdList(c *nserver.Conn, sess *session, arg string, namesOnly bool) {
	full, ok := s.resolve(sess, arg)
	if !ok {
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
	listing := []byte(b.String())
	s.startData(sess, &dataConn{done: c.Reserve(), send: func(dc *nserver.Conn) error {
		return dc.Send(listing)
	}})
}

// cmdRetr opens the file through the file-I/O service; the fstat of
// that open decides between 550 and 150, and the file then streams on
// the data connection (sendfile where the transport allows it). Both
// positions are reserved up front, so commands pipelined behind RETR
// are answered after its 150 and closing reply.
func (s *Server) cmdRetr(c *nserver.Conn, sess *session, arg string) {
	if arg == "" {
		_ = c.Reply(ftpproto.NewReply(501, ""))
		return
	}
	full, ok := s.resolve(sess, arg)
	if !ok {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	opened, done := c.Reserve(), c.Reserve()
	retr := func(_ events.Token, f *os.File, fi os.FileInfo, err error) {
		if err == nil && fi.IsDir() {
			f.Close()
			err = errors.New("copsftp: not a file")
		}
		if err != nil {
			_ = opened.Reply(ftpproto.NewReply(550, ""))
			_ = done.SendBuffers(nil, nil) // no transfer follows a 550
			return
		}
		_ = opened.Reply(ftpproto.NewReply(150, ""))
		s.startData(sess, &dataConn{done: done, file: f, send: func(dc *nserver.Conn) error {
			return dc.ReplyFile(nil, f, 0, fi.Size())
		}})
	}
	if _, err := s.ns.AIO().Open(full, nil, c.Priority(), retr); err != nil {
		retr(events.Token{}, nil, nil, err)
	}
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
	full, ok := s.resolve(sess, arg)
	if !ok {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	_ = c.Reply(ftpproto.NewReply(150, ""))
	s.startData(sess, &dataConn{done: c.Reserve(), stor: full})
}

// dataConn is the App of one transfer's data connection, which the
// framework runs as a codec-less Conn. For RETR and LIST, OnConnect
// queues send's bytes and closes: the connection closes once they are
// on the wire. For STOR, OnConnect creates the file and Handle writes
// each chunk read to it, until the peer's EOF closes the connection.
// OnClose fills the transfer's reserved closing reply: 226 after a clean
// close, 426 after a failed one (a write error or stall, a reset, a
// failed file write).
type dataConn struct {
	done nserver.Slot
	send func(dc *nserver.Conn) error
	stor string
	// mu guards file and err: a teardown's OnClose may overlap a Handle.
	mu   sync.Mutex
	file *os.File // RETR's source or STOR's target, closed with the transfer
	err  error    // STOR's first failed create or write
}

func (x *dataConn) OnConnect(dc *nserver.Conn) {
	if x.send == nil {
		x.mu.Lock()
		defer x.mu.Unlock()
		if x.file, x.err = os.Create(x.stor); x.err == nil {
			return
		}
	} else {
		_ = x.send(dc) // a failed send has torn dc down with its error
	}
	dc.Close()
}

func (x *dataConn) Handle(dc *nserver.Conn, req any) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.send != nil || x.file == nil || x.err != nil {
		return
	}
	if _, x.err = x.file.Write(req.([]byte)); x.err != nil {
		dc.Close()
	}
}

func (x *dataConn) OnClose(_ *nserver.Conn, err error) {
	code := 226
	if x.close(err) != nil {
		code = 426
	}
	_ = x.done.Reply(ftpproto.NewReply(code, ""))
}

// fail answers a transfer whose data connection never opened.
func (x *dataConn) fail() {
	_ = x.close(nil)
	_ = x.done.Reply(ftpproto.NewReply(425, ""))
}

// close closes the transfer's file and returns the first of err, a
// failed create or write, and a failed close.
func (x *dataConn) close(err error) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if err == nil {
		err = x.err
	}
	if x.file != nil {
		if cerr := x.file.Close(); err == nil {
			err = cerr
		}
		x.file = nil
	}
	return err
}

func (s *Server) cmdSize(c *nserver.Conn, sess *session, arg string) {
	full, ok := s.resolve(sess, arg)
	if !ok {
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
	full, ok := s.resolve(sess, arg)
	if !ok {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	if _, err := os.Stat(full); err != nil {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	sess.renameFrom = full
	_ = c.Reply(ftpproto.NewReply(350, ""))
}

func (s *Server) cmdRnto(c *nserver.Conn, sess *session, arg string) {
	if s.readOnly {
		_ = c.Reply(ftpproto.NewReply(550, "Server is read-only."))
		return
	}
	from := sess.renameFrom
	sess.renameFrom = ""
	if from == "" {
		_ = c.Reply(ftpproto.NewReply(503, "RNFR required first."))
		return
	}
	full, ok := s.resolve(sess, arg)
	if !ok {
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
	full, ok := s.resolve(sess, arg)
	if !ok {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	if err := op(full); err != nil {
		_ = c.Reply(ftpproto.NewReply(550, ""))
		return
	}
	_ = c.Reply(ftpproto.NewReply(okCode, ""))
}

// resolve maps arg, relative to the session's directory, to its path in
// the exported directory (see realPath).
func (s *Server) resolve(sess *session, arg string) (string, bool) {
	return s.realPath(ftpproto.ResolvePath(sess.cwd, arg))
}

// realPath maps a cleaned virtual path to the exported directory; false
// means it escapes the root.
func (s *Server) realPath(virtual string) (string, bool) {
	full := filepath.Join(s.root, filepath.FromSlash(virtual))
	return full, full == s.root || strings.HasPrefix(full, s.root+string(filepath.Separator))
}
