// Package wiretest is what the tests of the wire writers (each served
// body's one writer in internal/core, internal/compare and
// internal/server, which reads the solved value) share: the reference
// encoding — encoding/json itself, run over a method-less mirror of the
// value's wire struct — and seeded generators of hostile results to
// encode.
package wiretest

import (
	"encoding/json"
	"reflect"
	"testing"
)

// Reference returns what encoding/json's reflection encoder writes for
// v when no struct in v has a MarshalJSON. v is copied into mirror
// types built at run time — the same exported fields, tags and
// embedding, but no methods — and the copy is marshaled, so the
// reference follows the real structs by construction and cannot drift
// from them. Non-struct types keep their marshalers (money.Money is a
// leaf with its own tests).
func Reference(v any) ([]byte, error) {
	return json.Marshal(mirror(reflect.ValueOf(v)).Interface())
}

// mirrorType returns t with every struct type in it replaced by a
// method-less copy.
func mirrorType(t reflect.Type) reflect.Type {
	switch t.Kind() {
	case reflect.Struct:
		var fields []reflect.StructField
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				fields = append(fields, reflect.StructField{
					Name: f.Name, Type: mirrorType(f.Type), Tag: f.Tag, Anonymous: f.Anonymous,
				})
			}
		}
		return reflect.StructOf(fields)
	case reflect.Slice:
		// A slice type of method-less elements is kept as it is, name and
		// marshaler included (json.RawMessage).
		if e := mirrorType(t.Elem()); e != t.Elem() {
			return reflect.SliceOf(e)
		}
	case reflect.Pointer:
		if e := mirrorType(t.Elem()); e != t.Elem() {
			return reflect.PointerTo(e)
		}
	}
	return t
}

// mirror copies v into its mirror type.
func mirror(v reflect.Value) reflect.Value {
	mt := mirrorType(v.Type())
	if mt == v.Type() {
		return v
	}
	out := reflect.New(mt).Elem()
	switch v.Kind() {
	case reflect.Struct:
		k := 0
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				out.Field(k).Set(mirror(v.Field(i)))
				k++
			}
		}
	case reflect.Slice:
		if !v.IsNil() {
			out.Set(reflect.MakeSlice(mt, v.Len(), v.Len()))
			for i := 0; i < v.Len(); i++ {
				out.Index(i).Set(mirror(v.Index(i)))
			}
		}
	case reflect.Pointer:
		if !v.IsNil() {
			out.Set(reflect.New(mt.Elem()))
			out.Elem().Set(mirror(v.Elem()))
		}
	}
	return out
}

// Want returns json.Marshal(v), the bytes a served writer is held to,
// and fails t unless they are Reference's: v's wire structs must marshal
// by reflection alone, with no encoder of their own beside the writer.
func Want(t testing.TB, what string, v any) []byte {
	t.Helper()
	want, err := Reference(v)
	if err != nil {
		t.Fatalf("%s: reference encoder: %v", what, err)
	}
	if got, err := json.Marshal(v); err != nil || string(got) != string(want) {
		t.Fatalf("%s: json.Marshal differs from the reflection encoder (err %v):\ngot:  %s\nwant: %s", what, err, got, want)
	}
	return want
}
