package main

import (
	"reflect"
	"testing"

	"repro/pkg/assign/plandclient"
)

// wireFields lists what a struct puts on the wire: for every JSON field its
// full tag (name and options) and the shape of its type. Fields tagged "-"
// are local to their side.
func wireFields(t reflect.Type) map[string]string {
	var shape func(t reflect.Type) string
	shape = func(t reflect.Type) string {
		if k := t.Kind(); k == reflect.Slice || k == reflect.Pointer {
			return k.String() + " of " + shape(t.Elem())
		}
		return t.Kind().String()
	}
	fields := make(map[string]string)
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Tag.Get("json") != "-" {
			fields[f.Tag.Get("json")] = shape(f.Type)
		}
	}
	return fields
}

// TestWireStructsMatchTheClient: every other request and reply is one type,
// plandclient's, on both sides of the wire, and one type cannot drift from
// itself. The job view is the pair that remains: the server encodes the
// result value it holds, the client keeps the raw bytes to decode by job
// type. A field added to one side only is a field the user cannot see.
func TestWireStructsMatchTheClient(t *testing.T) {
	server, client := wireFields(reflect.TypeOf(jobResponse{})), wireFields(reflect.TypeOf(plandclient.Job{}))
	// The one deliberate difference: a value to encode against bytes to decode.
	if server["result,omitempty"] != "interface" || client["result,omitempty"] != "slice of uint8" {
		t.Errorf("result is a %s in jobResponse and a %s in plandclient.Job", server["result,omitempty"], client["result,omitempty"])
	}
	delete(server, "result,omitempty")
	delete(client, "result,omitempty")
	if !reflect.DeepEqual(server, client) {
		t.Errorf("jobResponse puts %v on the wire, plandclient.Job reads %v", server, client)
	}
}
