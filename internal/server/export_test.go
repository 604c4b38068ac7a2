package server

import (
	"encoding/json"

	"xivm/internal/core"
)

// xpathResponse decodes the body appendXPath writes for q against one
// snapshot, explain on: the differential tests compare rewritten and walked
// answers at the same epoch as wire structs, Plan always set.
func (r *Registry) xpathResponse(sh *Shard, snap *core.Snapshot, q string, allowRewrite bool) (XPathResponse, error) {
	var resp XPathResponse
	body, err := r.appendXPath(nil, sh, snap, q, allowRewrite, true)
	if err != nil {
		return resp, err
	}
	return resp, json.Unmarshal(body, &resp)
}
