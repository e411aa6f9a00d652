package resultcache

import (
	"fmt"
	"reflect"
	"time"
)

var durationType = reflect.TypeOf(time.Duration(0))

// Value appends v by walking its type, so a type's declaration is its
// encoding:
//
//   - time.Duration → Duration; other signed integers → Int; unsigned
//     integers → Uint; float64 → Float; string → Str; bool → Bool;
//   - a struct → its fields in declaration order; an array → its
//     elements; a slice → its length as an Int, then its elements.
//
// Any other kind (pointer, map, interface, float32, ...) is a bug in
// the type, and Value panics on it via mustHaveCodec.
func (e *Enc) Value(v any) { e.value(reflect.ValueOf(v)) }

func (e *Enc) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		e.Bool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.Type() == durationType {
			e.Duration(time.Duration(v.Int()))
		} else {
			e.Int(v.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.Uint(v.Uint())
	case reflect.Float64:
		e.Float(v.Float())
	case reflect.String:
		e.Str(v.String())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			e.value(v.Field(i))
		}
	case reflect.Slice:
		e.Int(int64(v.Len()))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			e.value(v.Index(i))
		}
	default:
		mustHaveCodec(v.Type())
	}
}

// Value decodes what Enc.Value wrote for ptr's element type into the
// value ptr points to, in place. ptr must be a non-nil pointer to a
// type Enc.Value takes, with exported struct fields; anything else
// panics via mustHaveCodec. A zero-length slice decodes to nil, and a
// longer one into a fresh array grown as its elements decode, so no
// allocation is sized from a length the payload claims. Malformed
// bytes never panic: like any read they set the sticky ErrCodec, and so
// does a negative slice length, one longer than the bytes left, or an
// integer its field cannot hold.
func (d *Dec) Value(ptr any) {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		mustHaveCodec(reflect.TypeOf(ptr))
	}
	d.value(v.Elem())
}

func (d *Dec) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(d.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		var n int64
		if v.Type() == durationType {
			n = int64(d.Duration())
		} else {
			n = d.Int()
		}
		if v.OverflowInt(n) {
			d.err = ErrCodec
		}
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n := d.Uint()
		if v.OverflowUint(n) {
			d.err = ErrCodec
		}
		v.SetUint(n)
	case reflect.Float64:
		v.SetFloat(d.Float())
	case reflect.String:
		v.SetString(d.Str())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			d.value(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Slice:
		n := d.Int()
		v.SetZero()
		if n < 0 || n > int64(len(d.buf)-d.off) {
			d.err = ErrCodec
			return
		}
		for i := 0; i < int(n) && d.err == nil; i++ {
			v.Grow(1)
			v.SetLen(i + 1)
			d.value(v.Index(i))
		}
	default:
		mustHaveCodec(v.Type())
	}
}

// mustHaveCodec panics: t has no encoding. That is a bug in a type's
// declaration or at a Dec.Value call site, never in a payload, so it is
// not an ErrCodec.
func mustHaveCodec(t reflect.Type) {
	panic(fmt.Sprintf("resultcache: no codec for %v (see Enc.Value and Dec.Value)", t))
}
