package xmltree

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// attrScanner is the package's one XML tokenizer, behind ScanAttrs and
// Parse. It lexes every tag, attribute, end tag and text run as a slice of
// its read window: a name is interned (the vocabulary of any document is
// small, and a direct-mapped cache answers most lookups before the map), an
// end tag is compared in place with the open element's name, an attribute
// value is copied once, from the window into a string slab the scan owns,
// and text reaches a TextBytesHandler without a copy; only a plain Text
// handler gets a string per text event. The whole state — window, intern
// table, cache, attribute slice, scratch — is pooled, so a scan allocates
// per slab block, not per token.
type attrScanner struct {
	r   io.Reader
	err error // sticky read error: io.EOF at the end of input

	// buf[pos:end] is the window's unread input. A lexer that runs off its
	// end calls fill, which keeps everything from pos on, so a construct's
	// bytes stay in the window until the lexer consumes them.
	buf      []byte
	pos, end int

	h         AttrHandler
	tb        TextBytesHandler // h's optional zero-copy text path, nil otherwise
	names     map[string]string
	nameBytes int       // the bytes of the names in names
	cache     [256]name // recently interned names, by a hash of their bytes
	attrs     []Attr
	vals      Arena  // attribute values' string slab; lives for the scan
	dec       []byte // entity-decoding scratch
	open      []name // the open elements, innermost last
}

// name is an interned qualified name and its local part.
type name struct{ q, local string }

// MaxTokenBytes caps one name, attribute value or text run (a CDATA
// section included). It sits 1 MiB above the wire layer's 16 MiB chunk
// limit, so a chunk body at that limit — or just past it, which the wire
// layer refuses with its own typed error — always reaches the handler,
// while an endless token is refused after at most this many bytes instead
// of being buffered whole.
const MaxTokenBytes = 17 << 20

const (
	// windowBytes is the read window a scan starts with. A token longer
	// than the window grows it, up to maxWindow: room for a token of
	// MaxTokenBytes and its delimiter, so the window never refuses a token
	// the limit admits.
	windowBytes = 32 << 10
	maxWindow   = MaxTokenBytes + windowBytes

	// A pooled scanner keeps at most this much window and scratch, and an
	// intern table of at most this many names holding at most this many
	// bytes: a scan of one huge token, or of a document with an endless
	// vocabulary, must not pin what it grew in the pool for every scan
	// after it.
	maxRetainedBytes = 1 << 20
	maxRetainedNames = 4096
)

// ErrTokenTooLarge reports a name, attribute value or text run longer than
// MaxTokenBytes.
var ErrTokenTooLarge = fmt.Errorf("xmltree: scan: token exceeds %d bytes", MaxTokenBytes)

var errUnterminated = fmt.Errorf("xmltree: scan: unterminated document")

var scanners = sync.Pool{New: func() any {
	return &attrScanner{buf: make([]byte, windowBytes), names: make(map[string]string, 32)}
}}

// ScanAttrs streams XML from r into h: local names, xmlns attributes
// dropped, trimmed non-empty text, the attribute slice reused between
// calls. It is single-pass and keeps no tree in memory, which is what lets
// the shredder discard state as soon as tuples are flushed and the wire
// path parse shipments without materializing them. Every XML read in the
// program goes through it; Parse is ScanAttrs into a TreeBuilder. The
// scanner comes from a pool: a SOAP envelope of a few hundred bytes would
// otherwise pay for a fresh window and intern table on every call.
func ScanAttrs(r io.Reader, h AttrHandler) error {
	s := scanners.Get().(*attrScanner)
	defer s.release()
	return s.scan(r, h)
}

func (s *attrScanner) scan(r io.Reader, h AttrHandler) error {
	s.r, s.h = r, h
	s.tb, _ = h.(TextBytesHandler)
	for {
		err := s.scanText()
		if err == io.EOF {
			if len(s.open) != 0 {
				return errUnterminated
			}
			return nil
		}
		if err != nil {
			return err
		}
		c, ok := s.readByte()
		if !ok {
			return errUnterminated
		}
		switch c {
		case '/':
			err = s.scanEndTag()
		case '!':
			err = s.scanBang()
		case '?':
			err = s.skipPast("?>")
		default:
			s.pos--
			err = s.scanStartTag()
		}
		if err != nil {
			return err
		}
	}
}

// release returns the scanner to the pool.
func (s *attrScanner) release() {
	s.reset()
	scanners.Put(s)
}

// reset detaches the scanner from the finished scan: no reader, handler or
// attribute value stays reachable, and state one scan grew past its bound
// is dropped rather than kept.
func (s *attrScanner) reset() {
	s.r, s.err, s.h, s.tb = nil, nil, nil, nil
	s.pos, s.end = 0, 0
	s.vals = Arena{}
	clear(s.attrs[:cap(s.attrs)])
	s.attrs, s.open = s.attrs[:0], s.open[:0]
	if cap(s.buf) > maxRetainedBytes {
		s.buf = make([]byte, windowBytes)
	}
	if cap(s.dec) > maxRetainedBytes {
		s.dec = nil
	}
	if len(s.names) > maxRetainedNames || s.nameBytes > maxRetainedBytes {
		s.names, s.nameBytes, s.cache = make(map[string]string, 32), 0, [len(s.cache)]name{}
	}
}

// fill reads more input into the window, keeping the unread bytes from
// pos on: it moves them to the window's front, grows the window when they
// already fill it, and reads at least one byte. It returns io.EOF at the
// end of input, the reader's error on a failed read, and ErrTokenTooLarge
// when the unread bytes fill a window of maxWindow.
func (s *attrScanner) fill() error {
	if s.err != nil {
		return s.err
	}
	if s.pos > 0 {
		s.end = copy(s.buf, s.buf[s.pos:s.end])
		s.pos = 0
	}
	if s.end == len(s.buf) {
		if len(s.buf) >= maxWindow {
			return ErrTokenTooLarge
		}
		grown := make([]byte, min(2*len(s.buf), maxWindow))
		copy(grown, s.buf[:s.end])
		s.buf = grown
	}
	// A read that returns bytes and an error leaves the error for the next
	// fill, once the bytes are lexed; a reader that keeps returning nothing
	// is given up on as bufio gives up on it.
	for range 100 {
		n, err := s.r.Read(s.buf[s.end:])
		s.end, s.err = s.end+n, err
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
	s.err = io.ErrNoProgress
	return s.err
}

// tokenErr is what a token cut short by err reports: ErrTokenTooLarge
// when the token outgrew the window, an unterminated document otherwise.
func tokenErr(err error) error {
	if err == ErrTokenTooLarge {
		return err
	}
	return errUnterminated
}

// readByte consumes one byte; ok is false at the end of input.
func (s *attrScanner) readByte() (byte, bool) {
	if s.pos == s.end && s.fill() != nil {
		return 0, false
	}
	s.pos++
	return s.buf[s.pos-1], true
}

// until lexes a token running from the read position up to delim, leaving
// both unconsumed: n is the token's length, the bytes up to the end of
// input when err is io.EOF. A token longer than MaxTokenBytes is refused
// as soon as it is known to be, whatever follows it.
func (s *attrScanner) until(delim []byte) (n int, err error) {
	from := 0
	for {
		w := s.buf[s.pos:s.end]
		if i := bytes.Index(w[from:], delim); i >= 0 {
			n = from + i
			if n > MaxTokenBytes {
				return n, ErrTokenTooLarge
			}
			return n, nil
		}
		if from = max(0, len(w)-len(delim)+1); from > MaxTokenBytes {
			return len(w), ErrTokenTooLarge
		}
		if err := s.fill(); err != nil {
			return s.end - s.pos, err
		}
	}
}

// scanText lexes character data up to the next '<' (which it consumes)
// and emits it trimmed. It returns io.EOF at the end of input.
func (s *attrScanner) scanText() error {
	n, err := s.until([]byte("<"))
	switch err {
	case nil:
		s.pos += n + 1
		return s.emitText(s.buf[s.pos-n-1 : s.pos-1])
	case io.EOF:
		s.pos += n
		if err := s.emitText(s.buf[s.pos-n : s.pos]); err != nil {
			return err
		}
		return io.EOF
	case ErrTokenTooLarge:
		return err
	}
	return fmt.Errorf("xmltree: scan: %w", err)
}

// emitText decodes entities, trims, and delivers a text event. Character
// data outside the root element carries no content and is discarded
// unchecked.
func (s *attrScanner) emitText(raw []byte) error {
	if len(s.open) == 0 {
		return nil
	}
	raw, err := s.decode(raw)
	if err != nil {
		return err
	}
	if t := bytes.TrimSpace(raw); len(t) > 0 {
		return s.deliverText(t)
	}
	return nil
}

// decode resolves entities, character references and line ends in raw
// and enforces the Char production on the result, which aliases raw or
// the decoding scratch. Plain text passes through as it is.
func (s *attrScanner) decode(raw []byte) ([]byte, error) {
	if plainText(raw) {
		return raw, nil
	}
	dec, err := decodeEntities(s.dec[:0], raw)
	s.dec = dec[:0]
	if err != nil {
		return nil, err
	}
	return dec, checkChars(dec)
}

// plainText reports whether b is printable ASCII, tabs, line feeds and
// spaces only: text that needs no entity decoding, no line-end
// normalization and no Char check.
func plainText(b []byte) bool {
	for _, c := range b {
		if !plainByte[c] {
			return false
		}
	}
	return true
}

// plainByte marks the bytes plain text may hold.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < 0x80; c++ {
		t[c] = c != '&'
	}
	t['\t'], t['\n'] = true, true
	return t
}()

// deliverText hands trimmed character data to the handler, through the
// zero-copy byte path when the handler supports it. t aliases the
// scanner's buffers, so the string conversion happens only for handlers
// that need one.
func (s *attrScanner) deliverText(t []byte) error {
	if s.tb != nil {
		return s.tb.TextBytes(t)
	}
	return s.h.Text(string(t))
}

// checkChars enforces the XML 1.0 Char production on character data and
// attribute values: control codes outside tab/LF/CR, surrogate halves,
// U+FFFE/U+FFFF, and invalid UTF-8 sequences are all rejected.
func checkChars(b []byte) error {
	for i := 0; i < len(b); {
		c := b[i]
		if c >= 0x20 && c < 0x80 {
			i++
			continue
		}
		if c < 0x80 {
			if c == '\t' || c == '\n' || c == '\r' {
				i++
				continue
			}
			return fmt.Errorf("xmltree: scan: illegal character code %#x", c)
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			return fmt.Errorf("xmltree: scan: invalid UTF-8")
		}
		if !isXMLChar(r) {
			return fmt.Errorf("xmltree: scan: illegal character code %#x", r)
		}
		i += size
	}
	return nil
}

// isXMLChar reports whether r is in the XML 1.0 Char production.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		(r >= 0x20 && r <= 0xD7FF) ||
		(r >= 0xE000 && r <= 0xFFFD) ||
		(r >= 0x10000 && r <= 0x10FFFF)
}

// decodeEntities appends src to dst resolving the five XML entities,
// numeric character references, and CR/CRLF newline normalization.
func decodeEntities(dst, src []byte) ([]byte, error) {
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch c {
		case '\r':
			if i+1 < len(src) && src[i+1] == '\n' {
				continue // CRLF collapses to the upcoming LF
			}
			dst = append(dst, '\n')
		case '&':
			semi := bytes.IndexByte(src[i:], ';')
			if semi < 1 {
				return dst, fmt.Errorf("xmltree: scan: malformed entity")
			}
			ent := src[i+1 : i+semi]
			i += semi
			switch string(ent) {
			case "lt":
				dst = append(dst, '<')
			case "gt":
				dst = append(dst, '>')
			case "amp":
				dst = append(dst, '&')
			case "quot":
				dst = append(dst, '"')
			case "apos":
				dst = append(dst, '\'')
			default:
				if len(ent) < 2 || ent[0] != '#' {
					return dst, fmt.Errorf("xmltree: scan: unknown entity &%s;", ent)
				}
				var (
					n   uint64
					err error
				)
				if ent[1] == 'x' || ent[1] == 'X' {
					n, err = strconv.ParseUint(string(ent[2:]), 16, 32)
				} else {
					n, err = strconv.ParseUint(string(ent[1:]), 10, 32)
				}
				if err != nil || !isXMLChar(rune(n)) {
					return dst, fmt.Errorf("xmltree: scan: bad character reference &%s;", ent)
				}
				dst = utf8.AppendRune(dst, rune(n))
			}
		default:
			dst = append(dst, c)
		}
	}
	return dst, nil
}

// intern returns the shared name for b, allocating only the first time
// each distinct name is seen. The cache slot b hashes to answers first;
// the intern table answers a miss and takes over the slot.
func (s *attrScanner) intern(b []byte) name {
	h := uint32(len(b))
	for _, c := range b {
		h = h*31 + uint32(c)
	}
	slot := &s.cache[h%uint32(len(s.cache))]
	if slot.q == string(b) {
		return *slot
	}
	q, ok := s.names[string(b)]
	if !ok {
		q = string(b)
		s.names[q] = q
		s.nameBytes += len(q)
	}
	*slot = name{q: q, local: localPart(q)}
	return *slot
}

// localPart strips a namespace prefix: "p:name" reads as "name". A colon
// with nothing on one side ("p:", ":name") marks no prefix, and the name
// keeps it.
func localPart(name string) string {
	if i := strings.LastIndexByte(name, ':'); i > 0 && i < len(name)-1 {
		return name[i+1:]
	}
	return name
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// nameStop marks the bytes that end a tag or attribute name: whitespace,
// '>', '/' and '=' — and '<', which is an error inside a tag.
var nameStop = [256]bool{' ': true, '\t': true, '\n': true, '\r': true, '>': true, '/': true, '=': true, '<': true}

// lexName lexes and consumes the tag or attribute name at the read
// position, up to the first byte that cannot be part of one. The slice
// aliases the window: it is valid until the next read.
func (s *attrScanner) lexName() ([]byte, error) {
	i := 0
	for {
		w := s.buf[s.pos:s.end]
		for i < len(w) && !nameStop[w[i]] {
			i++
		}
		switch {
		case i > MaxTokenBytes:
			return nil, ErrTokenTooLarge
		case i == len(w):
			if err := s.fill(); err != nil {
				return nil, tokenErr(err)
			}
			continue
		case w[i] == '<':
			return nil, fmt.Errorf("xmltree: scan: '<' in tag")
		case i == 0:
			return nil, fmt.Errorf("xmltree: scan: empty name")
		}
		s.pos += i
		return w[:i], nil
	}
}

// skipSpace skips whitespace and returns the byte after it, unconsumed.
func (s *attrScanner) skipSpace() (byte, error) {
	for {
		for ; s.pos < s.end; s.pos++ {
			if c := s.buf[s.pos]; !isSpace(c) {
				return c, nil
			}
		}
		if s.fill() != nil {
			return 0, errUnterminated
		}
	}
}

// scanStartTag parses an open (or self-closing) tag; the leading '<' is
// already consumed.
func (s *attrScanner) scanStartTag() error {
	b, err := s.lexName()
	if err != nil {
		return err
	}
	el := s.intern(b)
	s.attrs = s.attrs[:0]
	for {
		c, err := s.skipSpace()
		if err != nil {
			return err
		}
		switch c {
		case '>':
			s.pos++
			s.open = append(s.open, el)
			return s.h.StartElement(el.local, s.attrs)
		case '/':
			s.pos++
			if c, ok := s.readByte(); !ok || c != '>' {
				return errUnterminated
			}
			if err := s.h.StartElement(el.local, s.attrs); err != nil {
				return err
			}
			return s.h.EndElement(el.local)
		default:
			if err := s.scanAttr(); err != nil {
				return err
			}
		}
	}
}

// scanAttr parses one name="value" pair, dropping namespace declarations.
func (s *attrScanner) scanAttr() error {
	b, err := s.lexName()
	if err != nil {
		return err
	}
	drop := string(b) == "xmlns" || bytes.HasPrefix(b, []byte("xmlns:"))
	var local string
	if !drop {
		local = s.intern(b).local
	}
	c, err := s.skipSpace()
	if err != nil {
		return err
	}
	if c != '=' {
		return fmt.Errorf("xmltree: scan: attribute %q without value", local)
	}
	s.pos++
	quote, err := s.skipSpace()
	if err != nil {
		return err
	}
	if quote != '"' && quote != '\'' {
		return fmt.Errorf("xmltree: scan: unquoted attribute value")
	}
	s.pos++
	n, err := s.until([]byte{quote})
	if err != nil {
		return tokenErr(err)
	}
	raw := s.buf[s.pos : s.pos+n]
	s.pos += n + 1
	if drop {
		return nil
	}
	value, err := s.decode(raw)
	if err != nil {
		return err
	}
	s.attrs = append(s.attrs, Attr{Name: local, Value: s.vals.Bytes(value)})
	return nil
}

// scanEndTag parses a close tag; "</" is already consumed. A close tag
// must repeat its open tag's name exactly, prefix included; the name is
// compared where it lies in the window and copied only into an error.
func (s *attrScanner) scanEndTag() error {
	b, err := s.lexName()
	if err != nil {
		return err
	}
	top := len(s.open) - 1
	var el name
	if top >= 0 && s.open[top].q == string(b) {
		el = s.open[top]
	} else {
		top, el.q = -1, string(b)
	}
	c, err := s.skipSpace()
	if err != nil {
		return err
	}
	if c != '>' {
		return fmt.Errorf("xmltree: scan: malformed end tag </%s>", el.q)
	}
	s.pos++
	switch {
	case len(s.open) == 0:
		return fmt.Errorf("xmltree: scan: unexpected end tag </%s>", el.q)
	case top < 0:
		return fmt.Errorf("xmltree: scan: element <%s> closed by </%s>", s.open[len(s.open)-1].q, el.q)
	}
	s.open = s.open[:top]
	return s.h.EndElement(el.local)
}

// scanBang handles "<!" constructs: comments, CDATA sections, and DOCTYPE
// declarations (the latter skipped wholesale).
func (s *attrScanner) scanBang() error {
	c, ok := s.readByte()
	if !ok {
		return errUnterminated
	}
	switch c {
	case '-':
		if c, ok = s.readByte(); !ok || c != '-' {
			return fmt.Errorf("xmltree: scan: malformed comment")
		}
		return s.skipPast("-->")
	case '[':
		for _, want := range []byte("CDATA[") {
			if c, ok = s.readByte(); !ok || c != want {
				return fmt.Errorf("xmltree: scan: malformed CDATA section")
			}
		}
		return s.scanCDATA()
	default:
		// DOCTYPE or another declaration: skip it whole. Its first byte,
		// just read, is never a quote or the closing '>'.
		var decl declEnd
		for {
			for s.pos < s.end {
				s.pos++
				if decl.closes(s.buf[s.pos-1]) {
					return nil
				}
			}
			if s.fill() != nil {
				return errUnterminated
			}
		}
	}
}

// declEnd finds the '>' that closes a "<!" declaration, fed the bytes after
// the declaration's first one at a time. A quoted literal hides '>', a
// nested markup declaration ("<!ENTITY ...>" in a DOCTYPE's internal subset)
// must close before its parent does, and a "<!--" comment inside is skipped
// whole.
type declEnd struct {
	quote   byte // the open literal's quote, 0 outside one
	depth   int  // nested declarations open
	lt      int  // after a '<': 1 + the bytes of "!--" matched so far; 0 otherwise
	comment bool
	dashes  int // in a comment: the run of '-' just read
}

// closes consumes c and reports whether it ends the declaration.
func (d *declEnd) closes(c byte) bool {
	switch {
	case d.comment:
		if c == '>' && d.dashes >= 2 {
			d.comment = false
		}
		if c == '-' {
			d.dashes++
		} else {
			d.dashes = 0
		}
		return false
	case d.lt > 0:
		if c == "!--"[d.lt-1] {
			if d.lt++; d.lt > len("!--") {
				d.lt, d.comment, d.dashes = 0, true, 0
			}
			return false
		}
		// Not a comment: the '<' opened a nested declaration, and c is
		// its first byte.
		d.lt = 0
		d.depth++
	case c == '>' && d.quote == 0 && d.depth == 0:
		return true
	}
	switch {
	case d.quote != 0:
		if c == d.quote {
			d.quote = 0
		}
	case c == '"' || c == '\'':
		d.quote = c
	case c == '>':
		d.depth--
	case c == '<':
		d.lt = 1
	}
	return false
}

// scanCDATA lexes raw character data up to "]]>" and emits it trimmed.
func (s *attrScanner) scanCDATA() error {
	n, err := s.until([]byte("]]>"))
	if err != nil {
		return tokenErr(err)
	}
	raw := s.buf[s.pos : s.pos+n]
	s.pos += n + len("]]>")
	if len(s.open) == 0 {
		return nil
	}
	if err := checkChars(raw); err != nil {
		return err
	}
	if t := bytes.TrimSpace(crlf(raw)); len(t) > 0 {
		return s.deliverText(t)
	}
	return nil
}

// crlf rewrites each CR LF pair and each lone CR in b to one LF, in place:
// XML reads every line end as LF, inside a CDATA section too.
func crlf(b []byte) []byte {
	out := b[:0]
	for i, c := range b {
		if c == '\r' {
			if i+1 < len(b) && b[i+1] == '\n' {
				continue
			}
			c = '\n'
		}
		out = append(out, c)
	}
	return out
}

// skipPast discards input through the first occurrence of pat.
func (s *attrScanner) skipPast(pat string) error {
	match := 0
	for {
		for s.pos < s.end {
			c := s.buf[s.pos]
			s.pos++
			switch {
			case c == pat[match]:
				if match++; match == len(pat) {
					return nil
				}
			case c == pat[0]:
				match = 1
			default:
				match = 0
			}
		}
		if s.fill() != nil {
			return errUnterminated
		}
	}
}
