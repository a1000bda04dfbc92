package main

import (
	"reflect"
	"testing"

	"repro/pkg/assign/plandclient"
)

// wireFields lists what a struct puts on the wire: for every JSON field its
// full tag (name and options) and the shape of its type; for every embedded
// struct its type. Fields tagged "-" are local to their side.
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
		f := t.Field(i)
		switch tag := f.Tag.Get("json"); {
		case tag == "-":
		case f.Anonymous:
			fields["embedded "+f.Type.String()] = ""
		default:
			fields[tag] = shape(f.Type)
		}
	}
	return fields
}

// TestWireStructsMatchTheClient walks every request and response struct the
// server decodes or encodes against the plandclient type an SDK user fills in
// or reads: a field added to one side only is a knob the user cannot set or a
// result they cannot see.
func TestWireStructsMatchTheClient(t *testing.T) {
	for _, pair := range []struct{ server, client any }{
		{planRequest{}, plandclient.PlanRequest{}},
		{planResponse{}, plandclient.PlanResult{}},
		{executeRequest{}, plandclient.ExecuteRequest{}},
		{executeResponse{}, plandclient.ExecuteResult{}},
		{sessionCreateRequest{}, plandclient.SessionCreateRequest{}},
		{sessionResponse{}, plandclient.Session{}},
		{sessionDelta{}, plandclient.SessionDelta{}},
		{sessionDeltaResult{}, plandclient.SessionDeltaResult{}},
		{sessionPatchResponse{}, plandclient.SessionPatchResult{}},
	} {
		st, ct := reflect.TypeOf(pair.server), reflect.TypeOf(pair.client)
		server, client := wireFields(st), wireFields(ct)
		for tag, shape := range server {
			if got, ok := client[tag]; !ok {
				t.Errorf("%v has `json:%q`, %v does not", st, tag, ct)
			} else if got != shape {
				t.Errorf("`json:%q` is a %s in %v and a %s in %v", tag, shape, st, got, ct)
			}
		}
		for tag := range client {
			if _, ok := server[tag]; !ok {
				t.Errorf("%v has `json:%q`, %v does not", ct, tag, st)
			}
		}
	}
}
