
function render_line(line)
  if #line == 0 then
    return ""
  end
  local c = sub(line, 1, 1)
  if c == "%" then
    local sp = find(line, " ")
    if sp == 0 then
      local tag = sub(line, 2, #line)
      if #tag == 0 then
        error("empty tag")
      end
      return "<" .. tag .. "/>"
    end
    local tag = sub(line, 2, sp - 1)
    if #tag == 0 then
      error("empty tag")
    end
    return "<" .. tag .. ">" .. sub(line, sp + 1, #line) .. "</" .. tag .. ">"
  end
  if c == "=" then
    error("script tags unsupported")
  end
  if c == "-" then
    return ""
  end
  return line
end

function render(src)
  local out = ""
  local line = ""
  local i = 1
  local n = #src
  while i <= n + 1 do
    local flush = 1
    if i <= n then
      local c = sub(src, i, i)
      if c ~= "\n" then
        line = line .. c
        flush = 0
      end
    end
    i = i + 1
    if flush == 1 then
      out = out .. render_line(line)
      line = ""
    end
  end
  return #out
end
