package xmltree

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"xdx/internal/bufpool"
)

// attrScanner is the package's one XML tokenizer, behind ScanAttrs and
// Parse. It interns names (the vocabulary of any document is small), reuses
// one attribute slice and one scratch buffer, and copies attribute values
// into a string slab it owns for the one scan, so a scan allocates per slab
// block, not per token. Text reaches a TextBytesHandler without a copy;
// only a plain Text handler gets a string per text event.
type attrScanner struct {
	br    *bufio.Reader
	h     AttrHandler
	tb    TextBytesHandler // h's optional zero-copy text path, nil otherwise
	names map[string]string
	attrs []Attr
	vals  Arena    // attribute values' string slab; lives for the scan
	text  []byte   // raw accumulation of the pending character data
	dec   []byte   // entity-decoding scratch
	open  []string // qualified names of the open elements, innermost last
}

// MaxTokenBytes caps one name, attribute value or text run (a CDATA
// section included). It sits 1 MiB above the wire layer's 16 MiB chunk
// limit, so a chunk body at that limit — or just past it, which the wire
// layer refuses with its own typed error — always reaches the handler,
// while an endless token is refused after at most this many bytes instead
// of being buffered whole.
const MaxTokenBytes = 17 << 20

// ErrTokenTooLarge reports a name, attribute value or text run longer than
// MaxTokenBytes.
var ErrTokenTooLarge = fmt.Errorf("xmltree: scan: token exceeds %d bytes", MaxTokenBytes)

var errUnterminated = fmt.Errorf("xmltree: scan: unterminated document")

// scanStream drives the tokenizer over r, delivering events to h with the
// same contract as ScanAttrs: local names, xmlns attributes dropped,
// trimmed non-empty text, attribute slice reused between calls. Its 32 KiB
// read buffer comes from the shared pool: a SOAP envelope of a few hundred
// bytes would otherwise pay for a fresh one on every call.
func scanStream(r io.Reader, h AttrHandler) error {
	br := bufpool.Reader(r)
	defer bufpool.PutReader(br)
	s := &attrScanner{
		br:    br,
		h:     h,
		names: make(map[string]string, 32),
	}
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
		c, err := s.br.ReadByte()
		if err != nil {
			return errUnterminated
		}
		switch c {
		case '/':
			err = s.scanEndTag()
		case '!':
			err = s.scanBang()
		case '?':
			err = s.skipUntil("?>")
		default:
			s.br.UnreadByte()
			err = s.scanStartTag()
		}
		if err != nil {
			return err
		}
	}
}

// scanText consumes character data up to the next '<' (which it also
// consumes) and emits it trimmed. Returns io.EOF at end of input.
func (s *attrScanner) scanText() error {
	s.text = s.text[:0]
	for {
		chunk, err := s.br.ReadSlice('<')
		if err == nil {
			body := chunk[:len(chunk)-1]
			if len(s.text) == 0 {
				return s.emitText(body)
			}
			if err := s.buffer(body); err != nil {
				return err
			}
			return s.emitText(s.text)
		}
		if err := s.buffer(chunk); err != nil {
			return err
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err == io.EOF {
			if e := s.emitText(s.text); e != nil {
				return e
			}
			return io.EOF
		}
		return fmt.Errorf("xmltree: scan: %w", err)
	}
}

// buffer appends run to the pending token in s.text, refusing a token
// that would grow past MaxTokenBytes.
func (s *attrScanner) buffer(run []byte) error {
	if len(s.text)+len(run) > MaxTokenBytes {
		return ErrTokenTooLarge
	}
	s.text = append(s.text, run...)
	return nil
}

// emitText decodes entities, trims, and delivers a text event. Character
// data outside the root element carries no content and is discarded
// unchecked.
func (s *attrScanner) emitText(raw []byte) error {
	if len(s.open) == 0 {
		return nil
	}
	if bytes.IndexByte(raw, '&') < 0 && bytes.IndexByte(raw, '\r') < 0 {
		if err := checkChars(raw); err != nil {
			return err
		}
		if t := bytes.TrimSpace(raw); len(t) > 0 {
			return s.deliverText(t)
		}
		return nil
	}
	dec, err := decodeEntities(s.dec[:0], raw)
	s.dec = dec[:0]
	if err != nil {
		return err
	}
	if err := checkChars(dec); err != nil {
		return err
	}
	if t := bytes.TrimSpace(dec); len(t) > 0 {
		return s.deliverText(t)
	}
	return nil
}

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

// intern returns a shared string for a name, allocating only the first
// time each distinct name is seen.
func (s *attrScanner) intern(b []byte) string {
	if v, ok := s.names[string(b)]; ok {
		return v
	}
	v := string(b)
	s.names[v] = v
	return v
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

// readName consumes a tag or attribute name, stopping before the first
// byte that cannot be part of one. It scans the reader's buffered window a
// run at a time rather than a byte per call. The returned slice aliases
// s.dec.
func (s *attrScanner) readName() ([]byte, error) {
	s.dec = s.dec[:0]
	for {
		if s.br.Buffered() == 0 {
			if _, err := s.br.Peek(1); err != nil {
				return nil, errUnterminated
			}
		}
		win, _ := s.br.Peek(s.br.Buffered())
		i := 0
		for i < len(win) && !nameStop[win[i]] {
			i++
		}
		if len(s.dec)+i > MaxTokenBytes {
			return nil, ErrTokenTooLarge
		}
		s.dec = append(s.dec, win[:i]...)
		s.br.Discard(i)
		if i == len(win) {
			continue
		}
		switch {
		case win[i] == '<':
			return nil, fmt.Errorf("xmltree: scan: '<' in tag")
		case len(s.dec) == 0:
			return nil, fmt.Errorf("xmltree: scan: empty name")
		}
		return s.dec, nil
	}
}

func (s *attrScanner) skipSpace() (byte, error) {
	for {
		c, err := s.br.ReadByte()
		if err != nil {
			return 0, errUnterminated
		}
		if !isSpace(c) {
			return c, nil
		}
	}
}

// scanStartTag parses an open (or self-closing) tag; the leading '<' is
// already consumed.
func (s *attrScanner) scanStartTag() error {
	nameB, err := s.readName()
	if err != nil {
		return err
	}
	qname := s.intern(nameB)
	name := localPart(qname)
	s.attrs = s.attrs[:0]
	for {
		c, err := s.skipSpace()
		if err != nil {
			return err
		}
		switch c {
		case '>':
			s.open = append(s.open, qname)
			return s.h.StartElement(name, s.attrs)
		case '/':
			if c, err = s.br.ReadByte(); err != nil || c != '>' {
				return errUnterminated
			}
			if err := s.h.StartElement(name, s.attrs); err != nil {
				return err
			}
			return s.h.EndElement(name)
		default:
			s.br.UnreadByte()
			if err := s.scanAttr(); err != nil {
				return err
			}
		}
	}
}

// scanAttr parses one name="value" pair, dropping namespace declarations.
func (s *attrScanner) scanAttr() error {
	nameB, err := s.readName()
	if err != nil {
		return err
	}
	// The name slice aliases s.dec, which readName and decodeEntities
	// reuse; resolve drop/keep before touching the value.
	drop := string(nameB) == "xmlns" || bytes.HasPrefix(nameB, []byte("xmlns:"))
	var name string
	if !drop {
		name = localPart(s.intern(nameB))
	}
	c, err := s.skipSpace()
	if err != nil {
		return err
	}
	if c != '=' {
		return fmt.Errorf("xmltree: scan: attribute %q without value", name)
	}
	quote, err := s.skipSpace()
	if err != nil {
		return err
	}
	if quote != '"' && quote != '\'' {
		return fmt.Errorf("xmltree: scan: unquoted attribute value")
	}
	s.text = s.text[:0]
	for {
		chunk, err := s.br.ReadSlice(quote)
		if err == nil {
			if err := s.buffer(chunk[:len(chunk)-1]); err != nil {
				return err
			}
			break
		}
		if err := s.buffer(chunk); err != nil {
			return err
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		return errUnterminated
	}
	if drop {
		return nil
	}
	var value string
	if bytes.IndexByte(s.text, '&') < 0 && bytes.IndexByte(s.text, '\r') < 0 {
		if err := checkChars(s.text); err != nil {
			return err
		}
		value = s.vals.Bytes(s.text)
	} else {
		dec, err := decodeEntities(s.dec[:0], s.text)
		s.dec = dec[:0]
		if err != nil {
			return err
		}
		if err := checkChars(dec); err != nil {
			return err
		}
		value = s.vals.Bytes(dec)
	}
	s.attrs = append(s.attrs, Attr{Name: name, Value: value})
	return nil
}

// scanEndTag parses a close tag; "</" is already consumed. A close tag
// must repeat its open tag's name exactly, prefix included.
func (s *attrScanner) scanEndTag() error {
	nameB, err := s.readName()
	if err != nil {
		return err
	}
	c, err := s.skipSpace()
	if err != nil {
		return err
	}
	if c != '>' {
		return fmt.Errorf("xmltree: scan: malformed end tag </%s>", nameB)
	}
	top := len(s.open) - 1
	if top < 0 {
		return fmt.Errorf("xmltree: scan: unexpected end tag </%s>", nameB)
	}
	qname := s.open[top]
	if string(nameB) != qname {
		return fmt.Errorf("xmltree: scan: element <%s> closed by </%s>", qname, nameB)
	}
	s.open = s.open[:top]
	return s.h.EndElement(localPart(qname))
}

// scanBang handles "<!" constructs: comments, CDATA sections, and DOCTYPE
// declarations (the latter skipped wholesale).
func (s *attrScanner) scanBang() error {
	c, err := s.br.ReadByte()
	if err != nil {
		return errUnterminated
	}
	switch c {
	case '-':
		if c, err = s.br.ReadByte(); err != nil || c != '-' {
			return fmt.Errorf("xmltree: scan: malformed comment")
		}
		return s.skipUntil("-->")
	case '[':
		for _, want := range []byte("CDATA[") {
			if c, err = s.br.ReadByte(); err != nil || c != want {
				return fmt.Errorf("xmltree: scan: malformed CDATA section")
			}
		}
		return s.scanCDATA()
	default:
		// DOCTYPE or another declaration: skip it whole. Its first byte,
		// just read, is never a quote or the closing '>'.
		var decl declEnd
		for {
			if c, err = s.br.ReadByte(); err != nil {
				return errUnterminated
			}
			if decl.closes(c) {
				return nil
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

// scanCDATA reads raw character data up to "]]>" and emits it trimmed.
func (s *attrScanner) scanCDATA() error {
	s.text = s.text[:0]
	match := 0
	for {
		if len(s.text) > MaxTokenBytes {
			return ErrTokenTooLarge
		}
		c, err := s.br.ReadByte()
		if err != nil {
			return errUnterminated
		}
		switch {
		case c == ']':
			if match == 2 {
				s.text = append(s.text, ']') // "]]]" keeps one literal ']'
			} else {
				match++
			}
			continue
		case c == '>' && match == 2:
			if len(s.open) > 0 {
				if err := checkChars(s.text); err != nil {
					return err
				}
				if t := bytes.TrimSpace(crlf(s.text)); len(t) > 0 {
					return s.deliverText(t)
				}
			}
			return nil
		default:
			for ; match > 0; match-- {
				s.text = append(s.text, ']')
			}
			s.text = append(s.text, c)
		}
	}
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

// skipUntil discards input through the first occurrence of pat.
func (s *attrScanner) skipUntil(pat string) error {
	match := 0
	for {
		c, err := s.br.ReadByte()
		if err != nil {
			return errUnterminated
		}
		if c == pat[match] {
			match++
			if match == len(pat) {
				return nil
			}
		} else if c == pat[0] {
			match = 1
		} else {
			match = 0
		}
	}
}
