
def skip_ws(s, i):
    n = len(s)
    while i < n and (s[i] == " " or s[i] == "\t" or s[i] == "\n"):
        i = i + 1
    return i

def parse_string(s, i):
    n = len(s)
    i = i + 1
    while i < n:
        if s[i] == "\"":
            return i + 1
        if s[i] == "\\":
            i = i + 2
        else:
            i = i + 1
    raise JSONDecodeError

def parse_number(s, i):
    n = len(s)
    start = i
    if i < n and s[i] == "-":
        i = i + 1
    digits = 0
    while i < n and s[i] >= "0" and s[i] <= "9":
        i = i + 1
        digits = digits + 1
    if digits == 0:
        raise JSONDecodeError
    return i

def parse_object(s, i):
    n = len(s)
    i = skip_ws(s, i + 1)
    if i < n and s[i] == "}":
        return i + 1
    while 1 == 1:
        i = skip_ws(s, i)
        if i >= n or s[i] != "\"":
            raise JSONDecodeError
        i = parse_string(s, i)
        i = skip_ws(s, i)
        if i >= n or s[i] != ":":
            raise JSONDecodeError
        i = parse_value(s, i + 1)
        i = skip_ws(s, i)
        if i < n and s[i] == ",":
            i = i + 1
            continue
        if i < n and s[i] == "}":
            return i + 1
        raise JSONDecodeError
    return i

def parse_array(s, i):
    n = len(s)
    i = skip_ws(s, i + 1)
    if i < n and s[i] == "]":
        return i + 1
    while 1 == 1:
        i = parse_value(s, i)
        i = skip_ws(s, i)
        if i < n and s[i] == ",":
            i = i + 1
            continue
        if i < n and s[i] == "]":
            return i + 1
        raise JSONDecodeError
    return i

def parse_value(s, i):
    i = skip_ws(s, i)
    n = len(s)
    if i >= n:
        raise JSONDecodeError
    c = s[i]
    if c == "{":
        return parse_object(s, i)
    if c == "[":
        return parse_array(s, i)
    if c == "\"":
        return parse_string(s, i)
    if c == "t":
        if s[i:i + 4] == "true":
            return i + 4
        raise JSONDecodeError
    if c == "f":
        if s[i:i + 5] == "false":
            return i + 5
        raise JSONDecodeError
    if c == "n":
        if s[i:i + 4] == "null":
            return i + 4
        raise JSONDecodeError
    return parse_number(s, i)

def loads(s):
    i = parse_value(s, 0)
    i = skip_ws(s, i)
    if i != len(s):
        raise JSONDecodeError
    return i
